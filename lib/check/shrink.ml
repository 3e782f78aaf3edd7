(* Chunk [l] into [n] nearly-equal contiguous pieces (fewer when
   [length l < n]). *)
let chunks l n =
  let len = List.length l in
  let n = min n len in
  if n <= 0 then []
  else begin
    let size = (len + n - 1) / n in
    let rec go acc rest =
      match rest with
      | [] -> List.rev acc
      | _ ->
        let rec take k xs acc =
          if k = 0 then (List.rev acc, xs)
          else
            match xs with
            | [] -> (List.rev acc, [])
            | x :: xs -> take (k - 1) xs (x :: acc)
        in
        let chunk, rest = take size rest [] in
        go (chunk :: acc) rest
    in
    go [] l
  end

let ddmin ~test l =
  if l = [] then []
  else if test [] then []
  else begin
    let rec go l n =
      let len = List.length l in
      if len <= 1 then l
      else begin
        let cs = chunks l n in
        match List.find_opt test cs with
        | Some c -> go c 2 (* reduce to a failing subset *)
        | None -> (
          let complements =
            List.mapi
              (fun i _ ->
                List.concat (List.filteri (fun j _ -> j <> i) cs))
              cs
          in
          match List.find_opt test complements with
          | Some c -> go c (max (n - 1) 2) (* a chunk was irrelevant *)
          | None -> if n >= len then l else go l (min len (2 * n)))
      end
    in
    go l 2
  end

(* Schedule choice/flip lists can run to tens of thousands of entries;
   full ddmin re-executes the system per candidate and would be far too
   slow there.  Halving the kept prefix first costs O(log len) replays
   (dropping a suffix = handing the tail back to the deterministic
   fallback), after which ddmin runs only if what remains is small. *)
let ddmin_cap = 2_048

let shrink_prefix ~test l =
  let arr = Array.of_list l in
  let prefix k = Array.to_list (Array.sub arr 0 k) in
  let best = ref (Array.length arr) in
  let continue_ = ref true in
  while !continue_ && !best > 0 do
    let cand = !best / 2 in
    if test (prefix cand) then best := cand else continue_ := false
  done;
  prefix !best

let sequence ~test l =
  let l = shrink_prefix ~test l in
  if List.length l <= ddmin_cap then ddmin ~test l else l
