type 'a t = { noun : string; tokens : (string * 'a) list }

let parse t s =
  match List.assoc_opt s t.tokens with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown %s %s" t.noun s)

let token t v = fst (List.find (fun (_, w) -> w = v) t.tokens)
