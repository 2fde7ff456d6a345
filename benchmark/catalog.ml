(* Every workload and metric the benchmark reports. BENCHMARK.json at
   the repository root repeats these names, units and directions and
   adds the bounds; `minuet_benchmark selftest` checks the two agree.
   README.md maps each per-layer metric to its module and to the
   end-to-end metric it should move. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let workloads = [ "read-open"; "update-zipf"; "insert-grow"; "snapshot-scan" ]

let m ?(better = Lower) name unit = { name; unit; better }

(* Reported by every workload with tracing off. On snapshot-scan the
   "read" is a 1000-key snapshot scan; on read-open the latencies come
   from the 250 k ops/s reference step and tput_ops_s is the highest
   offered rate meeting read p99 <= 1 ms. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "host_us_per_op" "us";
    m "peak_heap_mb" "MB";
    m ~better:Higher "tput_ops_s" "ops/s";
    m "read_p50_ms" "ms";
    m "read_p99_ms" "ms";
    m "write_p50_ms" "ms";
    m "write_p99_ms" "ms";
  ]

(* Reported by every workload with tracing on. *)
let per_layer =
  [
    m "net.msgs_per_op" "msgs/op";
    m "net.bytes_per_op" "B/op";
    m "memnode.util_mean" "ratio";
    m "memnode.util_max" "ratio";
    m "memnode.queue_mean" "reqs";
    m "proxy.util_mean" "ratio";
    m "host.alloc_words_per_op" "words/op";
    m "host.major_gcs_per_kop" "1/kop";
    m "mtx.per_op" "mtx/op";
    m "mtx.2pc_share" "ratio";
    m "mtx.busy_retries_per_op" "1/op";
    m "mtx.compare_failed_per_op" "1/op";
    m "mtx.mirrors_per_op" "1/op";
    m "mtx.self_ms_per_op" "ms/op";
    m "heap.resident_mb" "MB";
    m "heap.bytes_per_user_byte" "ratio";
    m "txn.attempts_per_txn" "ratio";
    m "txn.aborted_ms_per_op" "ms/op";
    m "txn.validation_failures_per_op" "1/op";
    m "txn.commit_self_ms_per_op" "ms/op";
    m ~better:Higher "cache.hit_rate" "ratio";
    m "btree.traversal_self_ms_per_op" "ms/op";
    m "btree.aborts_per_op" "1/op";
    m "btree.splits_per_kop" "1/kop";
    m "node.materialisations_per_op" "1/op";
    m "btree.cow_per_op" "1/op";
    m ~better:Higher "scan.leaves_per_batch" "leaves";
    m "scan.batch_aborts_per_scan" "1/scan";
    m ~better:Higher "scan.keys_per_s" "keys/s";
    m "node.bytes_copied_per_op" "B/op";
    m ~better:Higher "scs.stale_reuse_ratio" "ratio";
    m "scs.request_ms_p99" "ms";
    m "scs.create_ms_p50" "ms";
    m "check.us_per_event" "us";
    m "check.share" "ratio";
    m "open.queue_p99_ms" "ms";
    m "open.backlog_max" "ops";
    m "open.gen_late_max_ms" "ms";
    m "proxy.charge_ms_per_op" "ms/op";
    m "ops.error_rate" "ratio";
    m "trace.host_us_per_op" "us";
    m "trace.spans_per_op" "spans/op";
    m "trace.detached_ms_per_op" "ms/op";
  ]

let find name =
  List.find_opt (fun x -> String.equal x.name name) (end_to_end @ per_layer)
