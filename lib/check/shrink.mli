(** Counterexample minimization.

    {!ddmin} is Zeller–Hildebrandt delta debugging over lists: given a
    failing input ([test input = true]) it returns a sublist that still
    fails, trying chunk subsets first and chunk complements second.
    Every candidate is validated by [test] — for schedules that means a
    full deterministic replay, so nothing "probably still failing" is
    ever kept.  The explorer shrinks its witnesses with it, and
    {!Hunt} its scripts through {!sequence}. *)

val ddmin : test:('a list -> bool) -> 'a list -> 'a list
(** Precondition: [test input = true] (otherwise the input is returned
    unchanged, except that [test [] = true] yields [[]]). *)

val sequence : test:('a list -> bool) -> 'a list -> 'a list
(** Shrink a long recorded sequence (adversary choices or coin flips):
    halve the kept prefix while [test] still holds (a dropped suffix
    falls back to the replayer's deterministic tail), then run {!ddmin}
    once what remains is at most 2,048 entries long.  Full ddmin over
    tens of thousands of schedule entries would replay far too many
    candidates. *)
