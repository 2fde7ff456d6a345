type t = {
  memnode_cores : int;
  heap_capacity : int;
  replication : bool;
  net_one_way : float;
  net_per_byte : float;
  net_jitter : float;
  svc_msg : float;
  svc_item : float;
  svc_per_kb : float;
  backup_factor : float;
  blocking_timeout : float;
  retry_backoff : float;
  retry_backoff_max : float;
  max_retries : int;
  in_doubt_grace : float;
  decision_retention : float;
  broken_recovery : bool;
}

let default =
  {
    memnode_cores = 2;
    heap_capacity = 1 lsl 30;
    replication = true;
    net_one_way = 25e-6;
    net_per_byte = 1e-9;
    net_jitter = 5e-6;
    svc_msg = 4e-6;
    svc_item = 0.6e-6;
    svc_per_kb = 1.2e-6;
    backup_factor = 0.6;
    blocking_timeout = 20e-3;
    retry_backoff = 50e-6;
    retry_backoff_max = 5e-3;
    max_retries = 10_000;
    in_doubt_grace = 0.25;
    decision_retention = 5.0;
    broken_recovery = false;
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>memnode_cores=%d replication=%b net_one_way=%.1fus svc_msg=%.1fus svc_item=%.2fus \
     svc_per_kb=%.2fus blocking_timeout=%.1fms in_doubt_grace=%.0fms@]"
    t.memnode_cores t.replication (t.net_one_way *. 1e6) (t.svc_msg *. 1e6) (t.svc_item *. 1e6)
    (t.svc_per_kb *. 1e6)
    (t.blocking_timeout *. 1e3)
    (t.in_doubt_grace *. 1e3)
