type verdict = Ok of int | Counterexample of Pid.t list
type mode = Every | Final

type stats = {
  nodes : int;
  steps_executed : int;
  replays : int;
  runtimes_built : int;
  memo_hits : int;
  sleep_pruned : int;
  orbits_collapsed : int;
  wall_s : float;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "nodes %d, steps %d, replays %d, builds %d, memo-hits %d, sleep-pruned \
     %d, orbits-collapsed %d, %.3fs"
    s.nodes s.steps_executed s.replays s.runtimes_built s.memo_hits
    s.sleep_pruned s.orbits_collapsed s.wall_s

let stats_json s =
  Obs.Json.Obj
    [
      ("nodes", Obs.Json.Int s.nodes);
      ("steps_executed", Obs.Json.Int s.steps_executed);
      ("replays", Obs.Json.Int s.replays);
      ("runtimes_built", Obs.Json.Int s.runtimes_built);
      ("memo_hits", Obs.Json.Int s.memo_hits);
      ("sleep_pruned", Obs.Json.Int s.sleep_pruned);
      ("orbits_collapsed", Obs.Json.Int s.orbits_collapsed);
      ("wall_s", Obs.Json.Float s.wall_s);
    ]

let zero_stats =
  { nodes = 0; steps_executed = 0; replays = 0; runtimes_built = 0;
    memo_hits = 0; sleep_pruned = 0; orbits_collapsed = 0; wall_s = 0. }

let merge_stats a b =
  {
    nodes = a.nodes + b.nodes;
    steps_executed = a.steps_executed + b.steps_executed;
    replays = a.replays + b.replays;
    runtimes_built = a.runtimes_built + b.runtimes_built;
    memo_hits = a.memo_hits + b.memo_hits;
    sleep_pruned = a.sleep_pruned + b.sleep_pruned;
    orbits_collapsed = a.orbits_collapsed + b.orbits_collapsed;
    wall_s = a.wall_s +. b.wall_s;
  }

let stats_of_json j =
  let ( let* ) = Stdlib.Result.bind in
  let int_field name =
    match Obs.Json.member name j with
    | Some v -> (
      match Obs.Json.to_int_opt v with
      | Some n -> Stdlib.Ok n
      | None ->
        Stdlib.Error (Printf.sprintf "stats field %S is not an integer" name))
    | None -> Stdlib.Error (Printf.sprintf "missing stats field %S" name)
  in
  let* nodes = int_field "nodes" in
  let* steps_executed = int_field "steps_executed" in
  let* replays = int_field "replays" in
  let* runtimes_built = int_field "runtimes_built" in
  let* memo_hits = int_field "memo_hits" in
  let* sleep_pruned = int_field "sleep_pruned" in
  let* orbits_collapsed = int_field "orbits_collapsed" in
  let* wall_s =
    match Obs.Json.member "wall_s" j with
    | Some v -> (
      match Obs.Json.to_float_opt v with
      | Some f -> Stdlib.Ok f
      | None -> Stdlib.Error "stats field \"wall_s\" is not a number")
    | None -> Stdlib.Error "missing stats field \"wall_s\""
  in
  Stdlib.Ok
    { nodes; steps_executed; replays; runtimes_built; memo_hits; sleep_pruned;
      orbits_collapsed; wall_s }

(* Mutable effort counters of one search; read into a [stats] after it. *)
type acc = {
  mutable a_nodes : int;
  mutable a_steps : int;
  mutable a_replays : int;
  mutable a_built : int;
  mutable a_memo : int;
  mutable a_sleep : int;
  mutable a_orbits : int;
  mutable a_count : int;  (* complete schedules accounted for *)
}

let fresh_acc () =
  { a_nodes = 0; a_steps = 0; a_replays = 0; a_built = 0; a_memo = 0;
    a_sleep = 0; a_orbits = 0; a_count = 0 }

let stats_of ~wall_s a =
  {
    nodes = a.a_nodes;
    steps_executed = a.a_steps;
    replays = a.a_replays;
    runtimes_built = a.a_built;
    memo_hits = a.a_memo;
    sleep_pruned = a.a_sleep;
    orbits_collapsed = a.a_orbits;
    wall_s;
  }

(* Lexicographic order on schedules, by position in [pids]; a schedule that
   is a strict prefix of another orders first (its violation is met earlier
   in DFS order, which visits the shallower node before any extension). *)
let sched_le ~pids a b =
  let pos p =
    let rec go i = function
      | [] -> max_int
      | q :: qs -> if Pid.equal p q then i else go (i + 1) qs
    in
    go 0 pids
  in
  let rec le xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: xs', y :: ys' ->
      let cx = pos x and cy = pos y in
      if cx < cy then true else if cx > cy then false else le xs' ys'
  in
  le a b

let merge_verdicts ~pids a b =
  match (a, b) with
  | Ok m, Ok n -> Ok (m + n)
  | (Counterexample _ as c), Ok _ | Ok _, (Counterexample _ as c) -> c
  | Counterexample x, Counterexample y ->
    Counterexample (if sched_le ~pids x y then x else y)

exception Cancelled

(* ------------------------------------------------------------------ *)
(* Sound state-space reduction: sleep-set partial-order reduction over the
   step-footprint independence relation ({!Runtime.footprint}), and symmetry
   reduction over caller-declared classes of interchangeable pids.

   Both layers prune whole subtrees while crediting exactly the number of
   complete schedules the subtree holds, so reported counts stay |pids|^depth
   — identical to the unreduced search, which the differential suite
   checks.

   Soundness notes (the load-bearing arguments, in one place):

   - Footprint stability: a parked operation names its registers up front and
     cannot be changed by other processes' steps, so the independence of two
     processes' next steps, evaluated at a node, holds across any
     interleaving of other processes below that node. Time-sensitive steps
     (FD queries; any step of a live S-process that crashes inside the
     pattern) are [F_timedep] and never commute, because every step advances
     the clock.

   - Sleep sets prune transitions, not states: every state reachable in the
     full tree at a given clock is still visited (classical result for
     acyclic spaces), so [Every]-mode per-prefix checking is preserved. The
     lexicographically least violating schedule is never pruned — a pruned
     child is trace-equivalent to a lex-smaller schedule, so the first
     counterexample found equals the unreduced search's (DFS order is lex
     order).

   - Sleep × memo: a memoized subtree was verified minus what its sleep set
     pruned, so an entry records the sleep mask it was explored under and a
     hit is taken only when stored ⊆ current (the stored exploration skipped
     nothing the current node is not itself entitled to skip). Otherwise the
     subtree is re-explored under the intersection and the entry tightened —
     monotone, so this converges.

   - Symmetry: at any state, the not-yet-scheduled members of a class are in
     identical (peeked) local states, so continuations that differ only by
     renaming them are prop-equivalent; exploring the first unused member
     with multiplier (m - u) covers all m - u renamings. Per class the
     explored children's multipliers sum to the class size, keeping counts
     exact. Which members a prefix has used is digest-determined, through
     each process's scheduled bit (a decided process's key, its decision,
     implies it), not through sched counters, so memoized counts transfer
     between digest-equal nodes.

   - Peeking: footprints force Fresh processes to their first suspension
     point. That is behaviour-neutral but digest-visible, so a reducing
     context peeks every pid after every step and replay — digests compared
     within one search's memo are taken at uniform peek points. The trivial
     context never peeks, so an unreduced search sees the digests of plain
     execution.

   - Probes: a null move changes only the clock, its process's sched
     counter, the step total and the trace, so the state a probe reads on
     the parent's runtime is the child's state, digest included. A reducing
     context peeked every pid at the parent and a null move starts no code,
     so the peek after a real step would change nothing there. A probed
     child's property and digest are therefore what its turn would read;
     only the reading is early, while the memo lookup stays at its turn.

   - Leaf reads: a node one step above full depth takes each leaf's move
     on its own runtime with {!Runtime.with_step}, reads the property and
     takes the move back, restoring every field the property or a key can
     read. A real move of a started process spends it, so the runtime is
     never stepped again: leaves need no runtime, and it is destroyed at
     the next replay. A real move of a process that has not started
     restarts it (below) and spends nothing, so it is read on a borrowed
     runtime too, and the runtime stays live. A leaf is never looked up,
     and no peek follows a leaf, so the property read is the one its turn
     would read.

   - Restarts: a process that has not started holds no continuation, only
     its code. Its first move is taken back by discontinuing whatever the
     code parked and marking it not started, so its next step runs the
     code from the beginning. Process code is deterministic and, by the
     requirement in exhaustive.mli, reaches the world only through its
     operations, so the rerun parks the same first operation on the same
     state: the restart is exact. Each restart happens inside the
     take-back or the prediction, so a plain search, which never peeks,
     still never shows [prop] a peeked process, and its keys stay those of
     plain execution. A reducing context peeked every pid at the node, so
     no process there is unstarted and nothing changes for it.

   - Null-only walks: at a null-move child where every pid is asleep,
     inert ({!Runtime.inert}) or a non-canonical class member, the subtree
     takes null moves only. Inert stays inert (finished, or crashed-stop),
     and a sleeping pid stays asleep down null moves, which are [F_local]
     and commute with every footprint a sleep mask can hold. Such a
     child's turn is run in the parent's read-ahead pass, on the parent's
     runtime under nested null moves, and the result is kept for the turn.
     It is the same search in the same context: the child's sleep mask
     depends only on which earlier siblings are explored, known before any
     turn, and the class counts and factor are the turn's. Counts credited
     early are the turn's counts, and an earlier sibling's counterexample
     still returns first. The walk looks the child and its subtree up, and
     stores them, before the turns of earlier siblings; each entry is
     stored only for a subtree verified under the mask it records, so it
     holds wherever and whenever its key is met, and only effort counters
     can move. A walk never takes a real step on the runtime it borrows: a
     node inside that needs one (when the memo re-explores it under the
     intersection with a stored mask, which can wake a live process)
     replays its own prefix on a runtime the walk destroys when it ends.
     Walks stay below the split frontier, so jobs are emitted in DFS
     order.

   - Predictions: a child reached by a real step is keyed on the parent's
     runtime by {!Runtime.digest_after}, which makes the step's key changes
     with the function the step itself uses and takes them back; a process
     that has not started is run to its first operation, as the step runs
     it, and restarted after. A reducing context peeked every pid at the
     parent, so the peek after the step changes nothing there either, and
     the predicted key is the one the child's turn would read. A hit on it
     credits the child without a runtime and without reading its property:
     [prop] is a function of the keyed state, and in [Every] mode every key
     a table holds belongs to a state that passed it (each node is checked
     before it is expanded, a job root included), so the child would pass.
     A miss reads the property on the child's runtime before expanding, as
     the child's turn always did. *)

type reduction = { sleep : bool; symmetry : Pid.t list list }

let no_reduction = { sleep = false; symmetry = [] }

(* Compiled, read-only search context. [no_reduction] compiles to the
   trivial one: no classes, sleep off, no peeking. *)
type rctx = {
  r_sleep : bool;
  r_peek : bool;  (* force every pid to its first suspension point *)
  r_pids : Pid.t array;
  r_cls : int array;  (* pid index -> class id, -1 if in no class *)
  r_pos : int array;  (* pid index -> canonical position within its class *)
  r_size : int array;  (* class id -> member count *)
  r_pow : int array;  (* r_pow.(d) = |pids|^d *)
}

let compile_reduction ~pids ~depth (r : reduction) =
  let arr = Array.of_list pids in
  let n = Array.length arr in
  let idx p =
    let rec go i =
      if i = n then
        invalid_arg "Exhaustive.run: symmetry class member not in pids"
      else if Pid.equal arr.(i) p then i
      else go (i + 1)
    in
    go 0
  in
  (* Sleep masks hold one bit per pid index in an int: past [Sys.int_size]
     pids, [1 lsl i] wraps onto a lower index's bit and a pid could be
     taken as asleep, silently pruning a subtree that was never explored. *)
  if r.sleep && n > Sys.int_size then
    invalid_arg
      (Printf.sprintf "Exhaustive: sleep sets hold at most %d pids, got %d"
         Sys.int_size n);
  let cls = Array.make n (-1) and pos = Array.make n (-1) in
  let size =
    List.mapi
      (fun c members ->
        let is = List.sort compare (List.map idx members) in
        (* Canonical order within a class is pids order, so the canonical
           representative of an orbit is also its lex-least schedule. *)
        List.iteri
          (fun j i ->
            if cls.(i) <> -1 then
              invalid_arg "Exhaustive.run: symmetry classes overlap";
            cls.(i) <- c;
            pos.(i) <- j)
          is;
        List.length is)
      r.symmetry
  in
  (* Credited counts are exact ints up to the whole tree's |pids|^depth: a
     tree any larger would wrap them silently. *)
  let pow = Array.make (depth + 1) 1 in
  for d = 1 to depth do
    if n > 0 && pow.(d - 1) > max_int / n then
      invalid_arg
        (Printf.sprintf
           "Exhaustive: %d^%d schedules overflow the credited count" n depth);
    pow.(d) <- pow.(d - 1) * n
  done;
  {
    r_sleep = r.sleep;
    r_peek = r.sleep || r.symmetry <> [];
    r_pids = arr;
    r_cls = cls;
    r_pos = pos;
    r_size = Array.of_list size;
    r_pow = pow;
  }

(* ------------------------------------------------------------------ *)
(* Frontier splitting: the work-distribution layer.

   [split] runs the search only down to [split_depth] and emits each
   frontier node as a self-contained job: the schedule prefix plus exactly
   the context the whole-tree search carries when it enters that node —
   sleep mask, orbit-multiplier product, per-class used counts.
   [run_subtree] re-enters the search from that context (same credited-count
   rules), so

     split + run_subtree over every job + merge  =  run

   for verdicts and credited counts, by construction rather than by
   approximation: it is one traversal, cut at the frontier.

   - subtrees pruned ABOVE the frontier (sleep) are credited by the splitter
     itself into [fr_pruned], and orbit collapses above the frontier shrink
     the job list exactly as they shrink the branching — the surviving
     jobs' factors sum the orbits back in;
   - subtrees pruned BELOW the frontier are credited inside each job,
     seeded with the frontier context;
   - DFS order is lex order and jobs are emitted (and numbered) in DFS
     order, so every counterexample inside job i lex-precedes every one
     inside job j > i: folding {!merge_verdicts} over job results in any
     order returns the whole-tree search's first counterexample.

   The splitter holds no memo: frontier prefixes are short, and skipping a
   digest-equal frontier node would need the remote job's count before it
   has run. In [Every] mode a prefix that violates the property stops the
   split — only the jobs already emitted (all lex-smaller) can hold an even
   smaller counterexample, so the coordinator still merges those. *)

type subtree = {
  sj_id : int;
  sj_prefix : Pid.t list;
  sj_sleep : Pid.t list;
  sj_factor : int;
  sj_used : int list;
}

type split_result = {
  fr_jobs : subtree list;
  fr_cex : Pid.t list option;
  fr_pruned : int;
  fr_stats : stats;
}

let whole_tree =
  { sj_id = 0; sj_prefix = []; sj_sleep = []; sj_factor = 1; sj_used = [] }

(* The memo: state key -> complete schedules below, divided by the factor
   in force when the subtree was entered; under sleep, [masks] holds the
   sleep mask it was explored under. Two tables keep a plain entry one
   unboxed int. The keys are written in [keys], the context every runtime
   the table's searches build is attached to, so keys of different
   runtimes compare. Entries hold for any node of the same search
   configuration, so the jobs of one split may share a table: [owner] is
   the (pids, depth, mode, reduction) of the first job that used it. *)
type table = {
  counts : (string, int) Hashtbl.t;
  masks : (string, int) Hashtbl.t;
  keys : Keys.t;
  mutable owner : (Pid.t list * int * mode * reduction) option;
}

let new_table ~sleep =
  {
    counts = Hashtbl.create 4096;
    masks = Hashtbl.create (if sleep then 4096 else 1);
    keys = Keys.create ();
    owner = None;
  }

let create_table () = new_table ~sleep:true

(* A table past this many entries is cut back to its start size by
   [clear_table] rather than wiped: one large search must not make every
   later small one pay to wipe its capacity. *)
let keep_entries = 1 lsl 16

let clear_table t =
  let wipe h =
    if Hashtbl.length h > keep_entries then Hashtbl.reset h else Hashtbl.clear h
  in
  wipe t.counts;
  wipe t.masks;
  Keys.clear t.keys;
  t.owner <- None

(* The table this domain's last [run] used, empty, kept for its next one:
   wiping it costs a pass over its buckets, where a new one costs two
   4,096-bucket arrays and a key context regrown from nothing (in a
   process of several domains, major-heap work for every run). A run
   takes it out of the slot while it searches, so a run nested in a
   [prop], or one on another thread of this domain, makes a table of its
   own. *)
let spare = Domain.DLS.new_key (fun () -> Atomic.make None)

let with_spare f =
  let slot = Domain.DLS.get spare in
  let t =
    match Atomic.exchange slot None with
    | Some t -> t
    | None -> create_table ()
  in
  Fun.protect
    ~finally:(fun () ->
      clear_table t;
      Atomic.set slot (Some t))
    (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* The incremental engine: the one traversal behind [run], [split] and
   [run_subtree].

   One live runtime is kept per DFS path: descending into a node's child is
   a single [Runtime.step]. Before its children are walked, the node's
   runtime is read for what their turns can use without a runtime of their
   own, each child's move taken there and taken back
   ([Runtime.with_step]). Every child whose move is null (a decided or
   finished process, a crashed S-process) is probed: the child's property
   and digest are read. The subtree of such a child that takes null moves
   only is searched right there, on the same runtime under nested null
   moves, and its turn returns the result. A node one step above full
   depth reads every leaf, real moves included, and gives its runtime to
   no child after a real move of a started process; a process that has
   not started is restarted and spends nothing. With the memo on, every
   other child that is not a leaf has its key predicted
   ([Runtime.digest_after]). A probed child is credited without a runtime
   when it is a leaf, a memo hit at its turn, a frontier job or a prefix
   violation, and a predicted child when it is a memo hit. The first child
   that needs a runtime (a miss) takes the node's, and a later one
   rebuilds it and replays the prefix (runtimes hold effect continuations,
   so they cannot be cloned — replay keeps the enumeration exact while the
   descent itself costs amortized O(1) steps per node, against O(depth)
   for replay-from-scratch at every node). A node whose runtime is
   borrowed by a walk replays for every child that needs one.

   On top, a memo over exact state keys ({!Runtime.digest} in the table's
   key context, which [build_fresh] attaches to every runtime it builds;
   [table] = [None] turns it off) collapses converging interleavings: when
   a node's state has been seen before at the same clock, its whole
   subtree is skipped and the recorded number of complete schedules below
   it is credited, so reported schedule counts stay exact. Only
   fully-verified (counterexample-free) subtrees are memoized. A probed or
   predicted child is looked up at its own turn, not when read; a walked
   one when it is walked, which is sound in any order (above).

   [dfs] expands the subtree [root] names: its prefix is replayed without
   property checks, then the subtree is searched under the root's sleep
   mask, orbit-multiplier product and per-class used counts. A job root is
   looked up in and stored to the memo like any other node; [whole_tree],
   the root of the full search, is not. In [Every] mode a job root's
   property is read before its lookup: a job may arrive from outside
   [split] (the [subtree] verb), and a root that fails is the job's
   counterexample, never a stored state. A node whose prefix reaches
   length [frontier] is handed to [emit] as a job instead of being
   expanded. Returns the first counterexample in DFS order, complete
   schedules credited into [acc]. *)

(* What a node's walk knows of a child before the child's turn. *)
type seen =
  | Unread  (** nothing: the child is read on its own runtime *)
  | Probed of bool * string
      (** a move taken on the parent's runtime and taken back: what [read]
          gives at the child *)
  | Predicted of string
      (** a real step's key, read on the parent's runtime without the step *)
  | Walked of Pid.t list option
      (** a null move whose whole subtree was searched on the parent's
          runtime: what the child's turn returns *)

let dfs rctx ~build ~prop ~mode ~table ~cancelled ~frontier ~emit acc root =
  let every = mode = Every in
  let memo = Option.is_some table in
  let n = Array.length rctx.r_pids in
  let depth = Array.length rctx.r_pow - 1 in
  let all = List.init n Fun.id in
  let idx p =
    let rec go i = if Pid.equal rctx.r_pids.(i) p then i else go (i + 1) in
    go 0
  in
  let used =
    match root.sj_used with
    | [] -> Array.make (Array.length rctx.r_size) 0
    | us -> Array.of_list us
  in
  let cur = ref None in
  let destroy_cur () =
    match !cur with
    | Some rt ->
      Runtime.destroy rt;
      cur := None
    | None -> ()
  in
  (* [f] searches on a borrowed runtime: the runtimes its replays build are
     its own, destroyed when it ends, and the borrowed one is left to its
     owner. *)
  let borrowing f =
    let owner = !cur in
    cur := None;
    Fun.protect f ~finally:(fun () ->
        destroy_cur ();
        cur := owner)
  in
  let peek_all rt =
    if rctx.r_peek then Array.iter (Runtime.peek rt) rctx.r_pids
  in
  let build_fresh () =
    acc.a_built <- acc.a_built + 1;
    let rt = build () in
    cur := Some rt;
    (match table with Some t -> Runtime.attach rt t.keys | None -> ());
    rt
  in
  let step rt i =
    Runtime.step rt rctx.r_pids.(i);
    acc.a_steps <- acc.a_steps + 1;
    peek_all rt
  in
  let replay prefix_rev =
    destroy_cur ();
    acc.a_replays <- acc.a_replays + 1;
    let rt = build_fresh () in
    List.iter (step rt) (List.rev prefix_rev);
    peek_all rt;
    rt
  in
  (* What the search reads of the state a node [d] steps above full depth
     holds: [ok] is the property where the mode checks it there (every
     child in [Every] mode, leaves in [Final] mode; [true] elsewhere), and
     [key] the digest the memo looks the node up by ([""] with the memo off
     and at leaves). *)
  let read rt d =
    let ok = if every || d = 0 then prop rt else true in
    let key = if ok && memo && d > 0 then Runtime.digest rt else "" in
    (ok, key)
  in
  let pids_of prefix_rev = List.rev_map (fun i -> rctx.r_pids.(i)) prefix_rev in
  let n_jobs = ref 0 in
  (* The node [d] steps above full depth, entered under sleep mask [z], read
     as [ok] and [key]; [get ()], called at most once, gives a runtime at
     it, [borrowed] when that runtime belongs to an ancestor and may take
     null moves only. [unchecked] marks an [Every]-mode node whose key was
     predicted and whose property is still to be read. Credited from the
     memo when its state was explored before under a sleep mask no larger
     than [z], else expanded and, once verified, stored. *)
  let rec visit get ~borrowed ~ok ~unchecked ~key prefix_rev d ~z ~factor =
    let stored =
      match table with
      | Some t when d > 0 -> Hashtbl.find_opt t.counts key
      | _ -> None
    in
    let zs =
      match (table, stored) with
      | Some t, Some _ when rctx.r_sleep -> Hashtbl.find t.masks key
      | _ -> 0
    in
    match stored with
    | Some raw when zs land lnot z = 0 ->
      acc.a_memo <- acc.a_memo + 1;
      acc.a_count <- acc.a_count + (factor * raw);
      None
    | _ -> (
      (* Miss, or the stored exploration slept on steps this node may not
         skip: (re-)explore under the intersection and tighten the entry. *)
      let z_explore = match stored with None -> z | Some _ -> zs land z in
      let count0 = acc.a_count in
      match
        expand get ~borrowed ~ok ~unchecked prefix_rev d ~z:z_explore ~factor
      with
      | Some cex -> Some cex
      | None ->
        (match table with
        | Some t when d > 0 ->
          Hashtbl.replace t.counts key ((acc.a_count - count0) / factor);
          if rctx.r_sleep then Hashtbl.replace t.masks key z_explore
        | _ -> ());
        None)
  and expand get ~borrowed ~ok ~unchecked prefix_rev d ~z ~factor =
    if depth - d = frontier then begin
      emit
        {
          sj_id = !n_jobs;
          sj_prefix = pids_of prefix_rev;
          sj_sleep =
            List.filter_map
              (fun i ->
                if z land (1 lsl i) <> 0 then Some rctx.r_pids.(i) else None)
              all;
          sj_factor = factor;
          sj_used = Array.to_list used;
        };
      incr n_jobs;
      None
    end
    else if d = 0 then begin
      acc.a_count <- acc.a_count + factor;
      if ok then None else Some (pids_of prefix_rev)
    end
    else
      let rt = get () in
      if unchecked && not (prop rt) then Some (pids_of prefix_rev)
      else walk rt ~borrowed prefix_rev d ~z ~factor
  (* The children of the node [rt] sits at, in DFS order. *)
  and walk rt ~borrowed prefix_rev d ~z ~factor =
    (* Footprints of everyone's next step at this node: stable below it,
       valid after replays (which reconstruct this very state). *)
    let fp =
      if rctx.r_sleep then Array.map (Runtime.footprint rt) rctx.r_pids
      else [||]
    in
    (* the orbit multiplier; 0 marks a non-canonical class member *)
    let mult i =
      let c = rctx.r_cls.(i) in
      if c < 0 then 1
      else
        let j = rctx.r_pos.(i) and u = used.(c) in
        if j < u then 1 else if j = u then rctx.r_size.(c) - u else 0
    in
    let asleep i = rctx.r_sleep && z land (1 lsl i) <> 0 in
    (* The sleep mask child [i] is entered under, [before] holding the
       siblings explored ahead of it. *)
    let mask i before =
      if not rctx.r_sleep then 0
      else begin
        let zin = z lor before and m = ref 0 in
        for q = 0 to n - 1 do
          if zin land (1 lsl q) <> 0 && Runtime.commute fp.(q) fp.(i) then
            m := !m lor (1 lsl q)
        done;
        !m
      end
    in
    (* [f ()] with the class counts below child [i]: a fresh member's move
       uses it up. *)
    let below i f =
      let c = rctx.r_cls.(i) in
      let fresh_member = c >= 0 && rctx.r_pos.(i) = used.(c) in
      if fresh_member then used.(c) <- used.(c) + 1;
      let r = f () in
      if fresh_member then used.(c) <- used.(c) - 1;
      r
    in
    (* Child [i]'s turn, read as [(ok, key)]: its [get] and [borrowed] as in
       [visit]. *)
    let enter i ~before get ~borrowed (ok, key) ~unchecked =
      acc.a_nodes <- acc.a_nodes + 1;
      let prefix_rev' = i :: prefix_rev in
      if every && not ok then Some (pids_of prefix_rev')
      else
        let factor' = factor * mult i in
        below i (fun () ->
            visit get ~borrowed ~ok ~unchecked ~key prefix_rev' (d - 1)
              ~z:(mask i before) ~factor:factor')
    in
    (* Read at child [i] (on [rt], its move taken): will its subtree take
       null moves only? Each pid there is asleep, inert, or a class member
       its class's canonical member stands for; asleep and inert stay so
       down null moves. *)
    let null_only i before =
      let z' = mask i before and only = ref true in
      below i (fun () ->
          for k = 0 to n - 1 do
            if
              z' land (1 lsl k) = 0
              && mult k <> 0
              && not (Runtime.inert rt rctx.r_pids.(k))
            then only := false
          done);
      !only
    in
    (* [rt] stays at this node until a child that needs a runtime takes it;
       a later such child replays the prefix, as does every one under a
       borrowed runtime. *)
    let live = ref (not borrowed) in
    (* Read on [rt], while it still sits here, what each child's turn can
       use without a runtime of its own. Every null move is probed, and the
       subtree of one that takes null moves only is searched then and
       there, under nested null moves, unless it would reach the frontier.
       A node one step above full depth reads its leaves, real moves too:
       one of a process that has not started restarts it, on any [rt]; one
       of a started process spends it, so it is read only on an owned [rt],
       which then goes to no child. A prediction is only a key, and a leaf
       is never looked up, so leaves are not predicted. *)
    let leaves = d = 1 and predict = memo && d > 1 in
    let walks = d > 1 && depth - (d - 1) > frontier in
    let seen = Array.make n Unread in
    let rec read_ahead i before =
      if i < n then
        if mult i = 0 || asleep i then read_ahead (i + 1) before
        else begin
          let pid = rctx.r_pids.(i) in
          let look () =
            acc.a_steps <- acc.a_steps + 1;
            let ok, key = read rt (d - 1) in
            if walks && null_only i before then
              Walked
                (borrowing (fun () ->
                     enter i ~before
                       (fun () -> rt)
                       ~borrowed:true (ok, key) ~unchecked:false))
            else Probed (ok, key)
          in
          let fresh = Runtime.status rt pid = Runtime.Fresh in
          let spends =
            leaves && (not borrowed) && not (fresh || Runtime.inert rt pid)
          in
          let restarts = leaves && fresh in
          let take_back =
            if spends || restarts then Runtime.with_step
            else Runtime.with_null_step
          in
          let s =
            match take_back rt pid look with
            | Some s ->
              if spends then live := false;
              s
            | None when predict -> (
              match Runtime.digest_after rt pid with
              | Some key -> Predicted key
              | None -> Unread)
            | None -> Unread
          in
          seen.(i) <- s;
          match s with
          | Walked (Some _) -> () (* no later child's turn comes *)
          | _ -> read_ahead (i + 1) (before lor (1 lsl i))
        end
    in
    read_ahead 0 0;
    let take i =
      let rt =
        if !live then begin
          live := false;
          rt
        end
        else replay prefix_rev
      in
      step rt i;
      rt
    in
    let rec kids before = function
      | [] -> None
      | i :: rest -> (
        if cancelled () then raise Cancelled;
        let mult = mult i in
        if mult = 0 then begin
          (* Non-canonical fresh class member: its subtree is a renaming
             of the canonical representative's, already counted in that
             child's multiplier. *)
          acc.a_orbits <- acc.a_orbits + 1;
          kids before rest
        end
        else if asleep i then begin
          (* Sleep-pruned: every continuation is trace-equivalent to a
             lex-smaller explored schedule; credit the whole subtree. *)
          acc.a_sleep <- acc.a_sleep + 1;
          acc.a_count <- acc.a_count + (factor * mult * rctx.r_pow.(d - 1));
          kids before rest
        end
        else
          let own = (fun () -> take i) and borrowed = false in
          let sub =
            match seen.(i) with
            | Walked sub -> sub
            | Probed (ok, key) ->
              enter i ~before own ~borrowed (ok, key) ~unchecked:false
            | Predicted key ->
              enter i ~before own ~borrowed (true, key) ~unchecked:every
            | Unread ->
              let crt = take i in
              enter i ~before
                (fun () -> crt)
                ~borrowed (read crt (d - 1)) ~unchecked:false
          in
          match sub with
          | Some cex -> Some cex
          | None -> kids (before lor (1 lsl i)) rest)
    in
    kids 0 all
  in
  Fun.protect ~finally:destroy_cur (fun () ->
      let rt = build_fresh () in
      peek_all rt;
      let pfx = List.map idx root.sj_prefix in
      List.iter (step rt) pfx;
      let z = List.fold_left (fun z p -> z lor (1 lsl idx p)) 0 root.sj_sleep in
      let d = depth - List.length pfx in
      let get () = rt and borrowed = false in
      if pfx = [] then
        expand get ~borrowed ~ok:true ~unchecked:false [] d ~z
          ~factor:root.sj_factor
      else if every && not (prop rt) then Some root.sj_prefix
      else
        let key = if memo then Runtime.digest rt else "" in
        visit get ~borrowed ~ok:true ~unchecked:false ~key (List.rev pfx) d ~z
          ~factor:root.sj_factor)

let never_cancel () = false

(* [dfs] without a frontier, timed and turned into a verdict. *)
let search ~name rctx ~build ~prop ~mode ~table ~cancel root =
  let sp = Obs.Span.start ~name () in
  let acc = fresh_acc () in
  let verdict =
    match
      dfs rctx ~build ~prop ~mode ~table ~cancelled:cancel ~frontier:(-1)
        ~emit:ignore acc root
    with
    | Some cex -> Counterexample cex
    | None -> Ok acc.a_count
  in
  (verdict, stats_of ~wall_s:(Obs.Span.elapsed_s sp) acc)

let run ?(memo = true) ?(mode = Every) ?(reduce = no_reduction)
    ?(cancel = never_cancel) ~build ~pids ~depth ~prop () =
  let rctx = compile_reduction ~pids ~depth reduce in
  let search table =
    search ~name:"exhaustive.run" rctx ~build ~prop ~mode ~table ~cancel
      whole_tree
  in
  if memo then with_spare (fun t -> search (Some t)) else search None

let split ?(mode = Every) ?(reduce = no_reduction) ~build ~pids ~depth
    ~split_depth ~prop () =
  if split_depth < 1 || split_depth >= depth then
    invalid_arg "Exhaustive.split: need 1 <= split_depth < depth";
  let rctx = compile_reduction ~pids ~depth reduce in
  let sp = Obs.Span.start ~name:"exhaustive.split" () in
  let acc = fresh_acc () in
  let jobs = ref [] in
  let cex =
    dfs rctx ~build ~prop ~mode ~table:None ~cancelled:never_cancel
      ~frontier:split_depth
      ~emit:(fun sj -> jobs := sj :: !jobs)
      acc whole_tree
  in
  {
    fr_jobs = List.rev !jobs;
    fr_cex = cex;
    fr_pruned = acc.a_count;
    fr_stats = stats_of ~wall_s:(Obs.Span.elapsed_s sp) acc;
  }

let merge_frontier ~pids fr results =
  let start =
    match fr.fr_cex with
    | Some cex -> Counterexample cex
    | None -> Ok fr.fr_pruned
  in
  List.fold_left
    (fun (v, st) (v', st') -> (merge_verdicts ~pids v v', merge_stats st st'))
    (start, fr.fr_stats) results

let run_subtree ?(memo = true) ?table ?(mode = Every) ?(reduce = no_reduction)
    ?(cancel = never_cancel) ~build ~pids ~depth ~prop sj =
  let rctx = compile_reduction ~pids ~depth reduce in
  let bad msg = invalid_arg ("Exhaustive.run_subtree: " ^ msg) in
  let k = List.length sj.sj_prefix in
  if k < 1 || k >= depth then bad "prefix length must be in [1, depth)";
  if
    not
      (List.for_all
         (fun p -> List.exists (Pid.equal p) pids)
         (sj.sj_prefix @ sj.sj_sleep))
  then bad "job pid not in pids";
  if
    (not rctx.r_peek)
    && (sj.sj_factor <> 1 || sj.sj_sleep <> [] || sj.sj_used <> [])
  then bad "job carries reduction context but no reduction is enabled";
  if sj.sj_factor < 1 then bad "factor must be >= 1";
  if sj.sj_used <> [] && List.length sj.sj_used <> Array.length rctx.r_size
  then bad "used-count list does not match symmetry classes";
  List.iteri
    (fun c u ->
      if u < 0 || u > rctx.r_size.(c) then bad "used count exceeds class size")
    sj.sj_used;
  let table =
    match table with
    | _ when not memo -> None
    | None -> Some (new_table ~sleep:rctx.r_sleep)
    | Some t ->
      let owner = Some (pids, depth, mode, reduce) in
      if t.owner = None then t.owner <- owner
      else if t.owner <> owner then
        bad "table was filled under another pids, depth, mode or reduction";
      Some t
  in
  search ~name:"exhaustive.run_subtree" rctx ~build ~prop ~mode ~table ~cancel
    sj

(* ------------------------------------------------ subtree wire format *)

let schedule_json ps =
  Obs.Json.List (List.map (fun p -> Obs.Json.Str (Pid.to_string p)) ps)

let schedule_of_json j =
  match j with
  | Obs.Json.List xs ->
    let rec go acc = function
      | [] -> Stdlib.Ok (List.rev acc)
      | Obs.Json.Str s :: rest -> (
        match Pid.of_string s with
        | Some p -> go (p :: acc) rest
        | None -> Stdlib.Error (Printf.sprintf "invalid pid %S in schedule" s))
      | _ -> Stdlib.Error "schedule holds a non-string pid"
    in
    go [] xs
  | _ -> Stdlib.Error "schedule is not a list"

let verdict_fields = function
  | Ok n -> [ ("verdict", Obs.Json.Str "ok"); ("schedules", Obs.Json.Int n) ]
  | Counterexample cex ->
    [
      ("verdict", Obs.Json.Str "counterexample");
      ("schedules", Obs.Json.Null);
      ("cex", schedule_json cex);
    ]

let verdict_of_json j =
  match Obs.Json.member "verdict" j with
  | Some (Obs.Json.Str "ok") -> (
    match Option.bind (Obs.Json.member "schedules" j) Obs.Json.to_int_opt with
    | Some n -> Stdlib.Ok (Ok n)
    | None -> Stdlib.Error "field \"schedules\" is missing or not an integer")
  | Some (Obs.Json.Str "counterexample") -> (
    match Obs.Json.member "cex" j with
    | Some c ->
      Stdlib.Result.map (fun cex -> Counterexample cex) (schedule_of_json c)
    | None -> Stdlib.Error "missing field \"cex\"")
  | _ -> Stdlib.Error "missing or unknown field \"verdict\""

let subtree_json sj =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Int sj.sj_id);
      ("prefix", schedule_json sj.sj_prefix);
      ("sleep", schedule_json sj.sj_sleep);
      ("factor", Obs.Json.Int sj.sj_factor);
      ("used", Obs.Json.List (List.map (fun u -> Obs.Json.Int u) sj.sj_used));
    ]

let subtree_of_json j =
  let ( let* ) = Stdlib.Result.bind in
  let int_field name =
    match Obs.Json.member name j with
    | Some v -> (
      match Obs.Json.to_int_opt v with
      | Some n -> Stdlib.Ok n
      | None ->
        Stdlib.Error (Printf.sprintf "subtree field %S is not an integer" name))
    | None -> Stdlib.Error (Printf.sprintf "missing subtree field %S" name)
  in
  let pid_list_field name =
    match Obs.Json.member name j with
    | Some v -> (
      match schedule_of_json v with
      | Stdlib.Ok ps -> Stdlib.Ok ps
      | Stdlib.Error msg ->
        Stdlib.Error (Printf.sprintf "subtree field %S: %s" name msg))
    | None -> Stdlib.Error (Printf.sprintf "missing subtree field %S" name)
  in
  let* sj_id = int_field "id" in
  let* sj_prefix = pid_list_field "prefix" in
  let* sj_sleep = pid_list_field "sleep" in
  let* sj_factor = int_field "factor" in
  let* sj_used =
    match Obs.Json.member "used" j with
    | Some (Obs.Json.List xs) ->
      let rec go acc = function
        | [] -> Stdlib.Ok (List.rev acc)
        | x :: rest -> (
          match Obs.Json.to_int_opt x with
          | Some u -> go (u :: acc) rest
          | None -> Stdlib.Error "field \"used\" holds a non-integer")
      in
      go [] xs
    | Some _ -> Stdlib.Error "subtree field \"used\" is not a list"
    | None -> Stdlib.Error "missing subtree field \"used\""
  in
  if sj_id < 0 then Stdlib.Error "subtree field \"id\" must be >= 0"
  else if sj_prefix = [] then Stdlib.Error "subtree prefix is empty"
  else Stdlib.Ok { sj_id; sj_prefix; sj_sleep; sj_factor; sj_used }

(* ------------------------------------------------------------------ *)
(* The replay-from-scratch baseline — the pre-incremental engine, kept (with
   the same instrumentation) as differential-testing oracle and benchmark
   yardstick. *)

let run_replay ?(mode = Every) ~build ~pids ~depth ~prop () =
  let sp = Obs.Span.start ~name:"exhaustive.run_replay" () in
  let acc = fresh_acc () in
  let every = mode = Every in
  let replay sched =
    acc.a_replays <- acc.a_replays + 1;
    acc.a_built <- acc.a_built + 1;
    let rt = build () in
    let rec go = function
      | [] -> true
      | p :: rest ->
        Runtime.step rt p;
        acc.a_steps <- acc.a_steps + 1;
        if rest = [] && not (prop rt) then false else go rest
    in
    let ok = go sched in
    Runtime.destroy rt;
    ok
  in
  let rec go prefix d =
    if d = 0 then begin
      acc.a_count <- acc.a_count + 1;
      if every then None
      else
        let sched = List.rev prefix in
        if replay sched then None else Some sched
    end
    else
      let rec try_pids = function
        | [] -> None
        | p :: rest ->
          acc.a_nodes <- acc.a_nodes + 1;
          let sched = List.rev (p :: prefix) in
          if every && not (replay sched) then Some sched
          else begin
            match go (p :: prefix) (d - 1) with
            | Some cex -> Some cex
            | None -> try_pids rest
          end
      in
      try_pids pids
  in
  let verdict =
    match go [] depth with
    | Some cex -> Counterexample cex
    | None -> Ok acc.a_count
  in
  (verdict, stats_of ~wall_s:(Obs.Span.elapsed_s sp) acc)

(* ------------------------------------------------------------------ *)

let replay_ok ?(mode = Every) ~build ~prop sched =
  let every = mode = Every in
  let rt = build () in
  let rec go = function
    | [] -> true
    | p :: rest ->
      Runtime.step rt p;
      if (every || rest = []) && not (prop rt) then false else go rest
  in
  let ok = go sched in
  Runtime.destroy rt;
  ok

let check ~build ~pids ~depth ~prop =
  fst (run ~mode:Every ~build ~pids ~depth ~prop ())

let check_final ~build ~pids ~depth ~prop =
  fst (run ~mode:Final ~build ~pids ~depth ~prop ())
