(* A deliberately simple work-stealing-free pool: one mutex, two
   condition variables, and an indexed job that workers drain by
   claiming the next unclaimed trial.  Trials are coarse (a whole
   simulated execution each, typically >= 100us), so per-trial lock
   traffic is noise; what matters is that results land at their trial
   index and never depend on which domain ran them. *)

type job = {
  run : int -> unit;  (* run trial [i]; must store its own result *)
  count : int;
  mutable next : int;  (* next unclaimed trial index; guarded by [m] *)
  mutable in_flight : int;  (* claimed but unfinished; guarded by [m] *)
}

type t = {
  target_workers : int;
  creator : int;  (* domain id of the creating (driving) domain *)
  m : Mutex.t;
  work : Condition.t;  (* a job arrived, or the pool is stopping *)
  finished : Condition.t;  (* the current job may be complete *)
  mutable job : job option;
  mutable error : exn option;
  mutable stop : bool;
  mutable domains : unit Domain.t array;  (* spawned lazily *)
  mutable helper_minor : float;  (* helper-domain minor words; guarded by [m] *)
}

let default_workers () =
  match Sys.getenv_opt "BPRC_WORKERS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some w when w >= 1 -> w
    | Some _ | None -> invalid_arg "BPRC_WORKERS must be a positive integer")
  | None -> Domain.recommended_domain_count ()

let create ?workers () =
  let target_workers =
    match workers with None -> default_workers () | Some w -> max 1 w
  in
  {
    target_workers;
    creator = (Domain.self () :> int);
    m = Mutex.create ();
    work = Condition.create ();
    finished = Condition.create ();
    job = None;
    error = None;
    stop = false;
    domains = [||];
    helper_minor = 0.0;
  }

let workers t = t.target_workers

let helper_minor_words t =
  Mutex.lock t.m;
  let w = t.helper_minor in
  Mutex.unlock t.m;
  w

(* Drain the job from the calling domain.  Takes and returns with
   [t.m] held.  Trials are claimed in chunks — one lock round-trip per
   chunk instead of per trial — sized so every worker still gets ~8
   claims and the tail stays balanced.  Results land at their trial
   index either way, so chunking cannot affect what [map] returns. *)
let drain t j =
  let chunk = max 1 (j.count / (t.target_workers * 8)) in
  while j.next < j.count do
    let lo = j.next in
    let hi = min j.count (lo + chunk) in
    j.next <- hi;
    j.in_flight <- j.in_flight + (hi - lo);
    Mutex.unlock t.m;
    (* [Gc.minor_words] is per-domain, so the driving domain's counter
       misses everything helpers allocate.  Meter each helper chunk and
       bank it under the lock we retake anyway. *)
    let helper = (Domain.self () :> int) <> t.creator in
    let m0 = if helper then Gc.minor_words () else 0.0 in
    let err =
      try
        for i = lo to hi - 1 do
          j.run i
        done;
        None
      with e -> Some e
    in
    let dm = if helper then Gc.minor_words () -. m0 else 0.0 in
    Mutex.lock t.m;
    if helper then t.helper_minor <- t.helper_minor +. dm;
    (match err with
    | Some e ->
      if t.error = None then t.error <- Some e;
      (* Fail fast: skip unclaimed trials, the results are discarded
         (the rest of this chunk was abandoned by the raise as well). *)
      j.next <- j.count
    | None -> ());
    j.in_flight <- j.in_flight - (hi - lo);
    if j.next >= j.count && j.in_flight = 0 then Condition.broadcast t.finished
  done

let worker_loop t =
  Mutex.lock t.m;
  let rec loop () =
    if t.stop then Mutex.unlock t.m
    else
      match t.job with
      | Some j when j.next < j.count ->
        drain t j;
        loop ()
      | _ ->
        Condition.wait t.work t.m;
        loop ()
  in
  loop ()

let ensure_spawned t =
  if Array.length t.domains = 0 && t.target_workers > 1 && not t.stop then
    t.domains <-
      Array.init (t.target_workers - 1) (fun _ ->
          Domain.spawn (fun () -> worker_loop t))

let shutdown t =
  Mutex.lock t.m;
  if t.stop then
    (* Second shutdown: the helpers are already joined (or were never
       spawned); there is nothing left to stop.  Explicitly a no-op so
       lifecycle code — a service engine tearing down, an [at_exit]
       hook racing a manual shutdown — can call it defensively. *)
    Mutex.unlock t.m
  else begin
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

(* Dispatching on a shut-down pool is a lifecycle bug (work would
   silently run inline on the caller, hiding the missing parallelism),
   so every map entry point refuses loudly.  [t.stop] is only ever
   flipped by [shutdown] on the driving domain — the same domain that
   maps — so reading it unlocked here is race-free under the pool's
   single-driver contract. *)
let check_live t what = if t.stop then invalid_arg (what ^ ": pool is shut down")

let map t count f =
  check_live t "Pool.map";
  if count < 0 then invalid_arg "Pool.map: negative count";
  if count = 0 then [||]
  else begin
    let results = Array.make count None in
    let run i = results.(i) <- Some (f i) in
    if t.target_workers <= 1 || count = 1 then
      for i = 0 to count - 1 do
        run i
      done
    else begin
      ensure_spawned t;
      let j = { run; count; next = 0; in_flight = 0 } in
      Mutex.lock t.m;
      if t.job <> None then begin
        Mutex.unlock t.m;
        invalid_arg "Pool.map: nested map on the same pool"
      end;
      t.job <- Some j;
      t.error <- None;
      Condition.broadcast t.work;
      (* The caller is a worker too. *)
      drain t j;
      while j.in_flight > 0 do
        Condition.wait t.finished t.m
      done;
      t.job <- None;
      let err = t.error in
      t.error <- None;
      Mutex.unlock t.m;
      match err with Some e -> raise e | None -> ()
    end;
    Array.map (function Some x -> x | None -> assert false) results
  end

let map_list t f xs =
  check_live t "Pool.map_list";
  let arr = Array.of_list xs in
  map t (Array.length arr) (fun i -> f arr.(i)) |> Array.to_list

let map_seeded t ~rng ~trials f =
  check_live t "Pool.map_seeded";
  (* Snapshot the base state so helper domains only ever read it. *)
  let base = Bprc_rng.Splitmix.copy rng in
  map t trials (fun i -> f (Bprc_rng.Splitmix.fork base i))

let shared = ref None

(* The shared pool belongs to the domain that first asked for it (in
   practice: the main domain, at module-init time nothing else exists).
   A helper domain calling [default ()] would either race the lazy
   creation or, worse, block inside a [map] on a pool that is already
   draining a job — a deadlock with no stack trace.  Refuse loudly
   instead. *)
let shared_owner = ref (-1)

let default () =
  let self = (Domain.self () :> int) in
  match !shared with
  | Some p ->
    if self <> !shared_owner then
      invalid_arg
        (Printf.sprintf
           "Pool.default: shared pool belongs to domain %d, called from \
            domain %d (create a dedicated pool instead)"
           !shared_owner self);
    p
  | None ->
    let p = create () in
    shared := Some p;
    shared_owner := self;
    at_exit (fun () -> shutdown p);
    p
