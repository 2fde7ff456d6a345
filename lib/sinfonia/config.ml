type t = {
  heap_capacity : int;
  replication : bool;
  svc_msg : float;
  svc_item : float;
  svc_per_kb : float;
  retry_backoff : float;
  in_doubt_grace : float;
  decision_retention : float;
  broken_recovery : bool;
}

let default =
  {
    heap_capacity = 1 lsl 30;
    replication = true;
    svc_msg = 4e-6;
    svc_item = 0.6e-6;
    svc_per_kb = 1.2e-6;
    retry_backoff = 50e-6;
    in_doubt_grace = 0.25;
    decision_retention = 5.0;
    broken_recovery = false;
  }
