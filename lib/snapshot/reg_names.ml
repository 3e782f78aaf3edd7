(* Register names depend only on the base [name] and [n], yet
   [Printf.sprintf] dominated a snapshot's [create], which runs once per
   instance and per explored run: memoized per domain on [(name, n)]. *)

let rec find name n = function
  | [] -> raise_notrace Not_found
  | (nm, k, names) :: rest ->
    if k = n && String.equal nm name then names else find name n rest

let memo make =
  let key = Domain.DLS.new_key (fun () -> ref []) in
  fun name n ->
    let cache = Domain.DLS.get key in
    match find name n !cache with
    | names -> names
    | exception Not_found ->
      let names = make name n in
      cache := (name, n, names) :: !cache;
      names

let values =
  memo (fun name n -> Array.init n (fun j -> Printf.sprintf "%s.V%d" name j))

let arrow n i j = (i * (n - 1)) + if j < i then j else j - 1

let arrows =
  memo (fun name n ->
      let names = Array.make (n * (n - 1)) name in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then
            names.(arrow n i j) <- Printf.sprintf "%s.A%d.%d" name i j
        done
      done;
      names)
