let check ~inputs ~decisions =
  if Array.length inputs <> Array.length decisions then
    invalid_arg "Spec.check: length mismatch";
  let decided =
    Array.to_list decisions |> List.filter_map Fun.id
  in
  match decided with
  | [] -> Ok ()
  | d0 :: rest ->
    if not (List.for_all (Bool.equal d0) rest) then
      Error "consistency violated: two processes decided differently"
    else begin
      let all_same =
        Array.for_all (Bool.equal inputs.(0)) inputs
      in
      if all_same && not (Bool.equal d0 inputs.(0)) then
        Error
          (Printf.sprintf
             "validity violated: unanimous input %b but decision %b"
             inputs.(0) d0)
      else Ok ()
    end
