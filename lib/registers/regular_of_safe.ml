module Make (R : Bprc_runtime.Runtime_intf.S) = struct
  type t = {
    bit : bool R.reg;
    mutable last : bool;  (** writer's private cache *)
  }

  let make ?(name = "reg-of-safe") ~init () =
    { bit = R.make_reg ~name init; last = init }

  let read t = R.read t.bit

  let write t b =
    if b <> t.last then begin
      R.write t.bit b;
      t.last <- b
    end
end
