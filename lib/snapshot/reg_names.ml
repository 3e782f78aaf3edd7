(* Register names depend only on the base [name] and [n], yet
   [Printf.sprintf] dominated a snapshot's [create]: it runs once per
   consensus instance and once per explored run, under base names the
   caller picks.  Memoized per domain on [(name, n)], one table per
   register family, so an embedded snapshot never builds the
   handshake's n² arrow names. *)

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

let arrows =
  memo (fun name n ->
      Array.init (n * n) (fun idx ->
          Printf.sprintf "%s.A%d.%d" name (idx / n) (idx mod n)))
