(** The consensus specification (§1): consistency and validity checks
    on the outcome of a run.  Wait-freedom (finite expected steps) is a
    statistical property checked by the experiment harness instead. *)

val check :
  inputs:bool array -> decisions:bool option array -> (unit, string) result
(** - {e consistency}: no two decided processes decided differently;
    - {e validity}: if every process started with the same value, every
      decided process decided that value;
    - decisions of processes that did not decide ([None], e.g. crashed
      or still running) are ignored.
    @raise Invalid_argument on length mismatch. *)
