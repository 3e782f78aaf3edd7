type t = {
  rounds : int array;
  published : int array;
  pending : int array;
  threshold : int;
}

let create ~n ~threshold =
  {
    rounds = Array.make n 0;
    published = Array.make n 0;
    pending = Array.make n 0;
    threshold;
  }

let front t = Array.fold_left max 0 t.rounds

let published_sum_at_front t =
  let fr = front t in
  let sum = ref 0 in
  Array.iteri (fun i r -> if r = fr then sum := !sum + t.published.(i)) t.rounds;
  !sum

let pending_at_front t pid =
  if t.rounds.(pid) = front t then t.pending.(pid) else 0
