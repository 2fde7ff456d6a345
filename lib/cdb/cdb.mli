(** "CDB": a behavioural model of the commercial main-memory database
    the paper compares against (Sec. 6.1; the described behaviour —
    hash partitioning, one execution thread per partition, synchronous
    stored procedures, multi-partition transactions engaging every
    server, per-query memory limits on scans — matches VoltDB/H-Store).

    Each host contributes five single-threaded partitions (the paper
    gives CDB five cores per host). Data is hash-partitioned by key; every record is also
    written synchronously to a replica partition on the next host
    (mirroring the paper's one-replica configuration). Multi-partition
    transactions coordinate {e all} partitions, which is why they do not
    scale (Fig. 13) and why range scans are impractical. *)

type t

val create : hosts:int -> t
(** Costs: 100 µs single-partition service time, multi-partition
    transactions cost 300 µs plus 25 µs per participating partition
    (all partitions blocked meanwhile), 3.2 ms fixed client-stack
    overhead (the commercial system's synchronous client path), scans
    limited to 100k keys per query. *)

val hosts : t -> int

(** {1 Single-key stored procedures} (must run inside a simulation) *)

val read : t -> string -> string option

val insert : t -> string -> string -> unit

val update : t -> string -> string -> unit
(** Like {!insert} (upsert semantics for the benchmark schema). *)

val remove : t -> string -> bool

(** {1 Multi-partition transactions} *)

val multi_read : t -> string list -> string option list
(** Atomic read of several keys (the dual-key transactions of
    Sec. 6.2): engages every partition. *)

val multi_write : t -> (string * string) list -> unit

exception Scan_too_large of int
(** The paper: "CDB was unable to perform long scans due to internal
    memory limitations for individual queries." *)

val scan : t -> from:string -> count:int -> (string * string) list
(** Range scan: engages every partition and merges; raises
    {!Scan_too_large} beyond the per-query limit. *)

(** {1 Introspection} *)

val size : t -> int
(** Number of records (primaries only). *)
