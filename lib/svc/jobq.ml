type 'a t = {
  q : 'a Queue.t;  (* the whole queue when [key] is absent (plain FIFO) *)
  key : ('a -> int) option;
  per : (int, 'a Queue.t) Hashtbl.t;  (* keyed mode: one FIFO per class *)
  rotation : int Queue.t;  (* classes with at least one queued item *)
  mutable len : int;
  bound : int;
  mutable closed : bool;
  mutex : Mutex.t;
  nonempty : Condition.t;
}

let create ?key ~bound () =
  if bound < 1 then invalid_arg "Jobq.create: bound must be >= 1";
  {
    q = Queue.create ();
    key;
    per = Hashtbl.create 16;
    rotation = Queue.create ();
    len = 0;
    bound;
    closed = false;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
  }

(* Callers hold the mutex. The bound stays global — fairness is a dequeue
   property; admission is still one shared high-watermark. *)
let push_locked t x =
  if t.closed then `Closed
  else if t.len >= t.bound then `Full
  else begin
    (match t.key with
    | None -> Queue.push x t.q
    | Some key ->
      let k = key x in
      let sub =
        match Hashtbl.find_opt t.per k with
        | Some sub -> sub
        | None ->
          let sub = Queue.create () in
          Hashtbl.add t.per k sub;
          Queue.push k t.rotation;
          sub
      in
      Queue.push x sub);
    t.len <- t.len + 1;
    `Ok
  end

let pop_locked t =
  match t.key with
  | None -> Queue.pop t.q
  | Some _ ->
    (* round-robin: serve the class at the head of the rotation, then send
       it to the back (or retire it if that drained it) — a client
       pipelining 100 requests delays everyone else by at most one job per
       turn instead of 100 *)
    let k = Queue.pop t.rotation in
    let sub = Hashtbl.find t.per k in
    let x = Queue.pop sub in
    if Queue.is_empty sub then Hashtbl.remove t.per k
    else Queue.push k t.rotation;
    x

let try_push t x =
  Mutex.lock t.mutex;
  let r = push_locked t x in
  if r = `Ok then Condition.signal t.nonempty;
  Mutex.unlock t.mutex;
  r

(* One lock acquisition for a whole batch; wake as many waiters as items
   actually entered the queue. *)
let try_push_many t xs =
  Mutex.lock t.mutex;
  let pushed = ref 0 in
  let rs =
    List.map
      (fun x ->
        let r = push_locked t x in
        if r = `Ok then incr pushed;
        r)
      xs
  in
  if !pushed = 1 then Condition.signal t.nonempty
  else if !pushed > 1 then Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  rs

let pop t =
  Mutex.lock t.mutex;
  while t.len = 0 && not t.closed do
    Condition.wait t.nonempty t.mutex
  done;
  let r =
    if t.len = 0 then None
    else begin
      t.len <- t.len - 1;
      Some (pop_locked t)
    end
  in
  Mutex.unlock t.mutex;
  r

(* Keep the items of [q] that [f] refuses, in order; the rest go onto
   [dropped], newest first. *)
let filter_queue f q dropped =
  let kept = Queue.create () in
  Queue.iter
    (fun x -> if f x then dropped := x :: !dropped else Queue.push x kept)
    q;
  Queue.clear q;
  Queue.transfer kept q

let drop t f =
  Mutex.protect t.mutex (fun () ->
      let dropped = ref [] in
      (match t.key with
      | None -> filter_queue f t.q dropped
      | Some _ ->
        let classes = Queue.copy t.rotation in
        Queue.clear t.rotation;
        Queue.iter
          (fun k ->
            let sub = Hashtbl.find t.per k in
            filter_queue f sub dropped;
            if Queue.is_empty sub then Hashtbl.remove t.per k
            else Queue.push k t.rotation)
          classes);
      t.len <- t.len - List.length !dropped;
      List.rev !dropped)

let close t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n = t.len in
  Mutex.unlock t.mutex;
  n
