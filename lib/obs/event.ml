type t = { name : string; fields : (string * Json.t) list }

let make name fields = { name; fields }

let equal a b =
  String.equal a.name b.name
  && Json.equal (Json.Obj a.fields) (Json.Obj b.fields)

module Name = struct
  let adversary_witness = "adversary.witness"
  let adversary_exhausted = "adversary.exhausted"
  let adversary_fuzz_witness = "adversary.fuzz.witness"
  let adversary_fuzz_exhausted = "adversary.fuzz.exhausted"
  let adversary_shrunk = "adversary.shrunk"
  let svc_start = "svc.start"
  let svc_stop = "svc.stop"
  let svc_accept_error = "svc.accept.error"
  let svc_shard_start = "svc.shard.start"
  let svc_shard_stop = "svc.shard.stop"
  let svc_shard_error = "svc.shard.error"
  let svc_conn_open = "svc.conn.open"
  let svc_conn_close = "svc.conn.close"
  let svc_request = "svc.request"
  let svc_reject = "svc.reject"
  let svc_done = "svc.done"
  let svc_timeout = "svc.timeout"
  let svc_drain = "svc.drain"
  let svc_cancel = "svc.cancel"
  let dist_split = "dist.split"
  let dist_dispatch = "dist.dispatch"
  let dist_result = "dist.result"
  let dist_redispatch = "dist.redispatch"
  let dist_worker_dead = "dist.worker.dead"
  let dist_done = "dist.done"
  let ckpt_save = "ckpt.save"
  let ckpt_save_error = "ckpt.save.error"
  let ckpt_load = "ckpt.load"
  let ckpt_rollback = "ckpt.rollback"
  let ckpt_resume = "ckpt.resume"
end

let to_json e = Json.Obj (("ev", Json.Str e.name) :: e.fields)
let to_line e = Json.to_string (to_json e)
let pp ppf e = Format.pp_print_string ppf (to_line e)
