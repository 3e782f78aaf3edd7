(** The abstract shared-memory machine every algorithm in this
    repository is written against.

    An implementation provides atomic registers, the identity of the
    calling process, and a local coin flip.  {!Sim} implements it: a
    deterministic simulator in which the adversary picks every register
    access, one scheduling step each — the paper's model and cost
    model.  The other implementations wrap it
    ([Bprc_faults.Inject]'s weakened registers), so every run can be
    replayed from its seed and explored schedule by schedule. *)

module type S = sig
  type 'a reg
  (** An atomic multi-reader register.  Write discipline (single-writer
      for the snapshot's [V_i], two-writer for the handshake [A_ij]) is
      by convention of the algorithms, not enforced here. *)

  val make_reg : ?name:string -> 'a -> 'a reg
  (** Allocate a register with an initial value.  Not a step. *)

  val read : 'a reg -> 'a
  (** Atomic read; one step. *)

  val write : 'a reg -> 'a -> unit
  (** Atomic write; one step. *)

  val peek : 'a reg -> 'a
  (** Checker-only inspection: current value, no step, not recorded. *)

  val poke : 'a reg -> 'a -> unit
  (** Checker/test-only mutation, no step, not recorded. *)

  val flip : unit -> bool
  (** Local fair coin flip of the calling process.  One step (so a
      strong adversary can observe the outcome before the subsequent
      write is scheduled, as in the paper's adversary model). *)

  val pid : unit -> int
  (** Identity of the calling process, in [0 .. n-1]. *)

  val n : int
  (** Number of processes. *)

  val now : unit -> int
  (** Logical global time: the number of shared-memory steps executed so
      far system-wide.  Used by correctness checkers. *)

  val yield : unit -> unit
  (** An explicit no-op step. *)
end

(** {!S} plus straight-line runs of register accesses.  A batch
    operation performs exactly the accesses, in exactly the order, of
    the loop of single accesses it documents — each one is still one
    step chosen by the adversary — but the addresses are fixed before
    the first access, and nothing but the caller's own output buffers
    changes between the accesses.  A runtime may therefore carry out
    the whole run without resuming the caller between the accesses:
    {!Sim.batched} does, and {!Loop} lifts any {!S} one access at a
    time.  Besides the plain collect, the two operations are the fixed
    access sequences of the §2.2 handshake snapshot's scan attempt and
    update, so each of those operations is one batch. *)
module type BATCHED = sig
  include S

  val collect : 'a reg array -> skip:int -> 'a array -> unit
  (** [collect regs ~skip out] is
      [for j = 0 to Array.length regs - 1 do
         if j <> skip then out.(j) <- read regs.(j) done]:
      one step per read, ascending.  [out.(skip)] is left alone.
      @raise Invalid_argument when [out] is shorter than [regs]. *)

  val scan_attempt :
    bool reg array -> int array -> 'a reg array -> skip:int -> 'a array ->
    'a array -> bool
  (** [scan_attempt arrows idx regs ~skip v1 v2] is
      [for k = 0 to Array.length idx - 1 do
         write arrows.(idx.(k)) false done;
       collect regs ~skip v1;
       collect regs ~skip v2;
       any := false;
       for k = 0 to Array.length idx - 1 do
         if read arrows.(idx.(k)) then any := true done;
       !any]:
      clear the arrows, collect twice, read the arrows back — all of
      them, whatever they hold — and return whether any read [true].
      @raise Invalid_argument when [v1] or [v2] is shorter than [regs]. *)

  val update : bool reg array -> int array -> 'a reg -> 'a -> unit
  (** [update arrows idx r v] is
      [for k = 0 to Array.length idx - 1 do
         write arrows.(idx.(k)) true done;
       write r v]:
      raise the arrows, then publish [v]. *)
end

(** The per-access lifting: every batch is the documented loop of
    single accesses, so a runtime without batching (a weakened or
    instrumented wrapper) keeps its own per-access semantics. *)
module Loop (R : S) : BATCHED with type 'a reg = 'a R.reg = struct
  include R

  let check_out what regs out =
    if Array.length out < Array.length regs then
      invalid_arg (what ^ ": out is shorter than regs")

  let collect_loop regs ~skip out =
    for j = 0 to Array.length regs - 1 do
      if j <> skip then out.(j) <- R.read regs.(j)
    done

  let collect regs ~skip out =
    check_out "collect" regs out;
    collect_loop regs ~skip out

  let scan_attempt arrows idx regs ~skip v1 v2 =
    check_out "scan_attempt" regs v1;
    check_out "scan_attempt" regs v2;
    for k = 0 to Array.length idx - 1 do
      R.write arrows.(idx.(k)) false
    done;
    collect_loop regs ~skip v1;
    collect_loop regs ~skip v2;
    let any = ref false in
    for k = 0 to Array.length idx - 1 do
      if R.read arrows.(idx.(k)) then any := true
    done;
    !any

  let update arrows idx r v =
    for k = 0 to Array.length idx - 1 do
      R.write arrows.(idx.(k)) true
    done;
    R.write r v
end
