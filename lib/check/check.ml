(** History-based consistency checking for Minuet runs.

    Sessions emit per-operation events (via [Session.attach ~tracer]);
    {!Stream} consumes them one at a time and verifies the history
    against a sequential model: serializability in commit-stamp order,
    real-time (strictness) constraints, exact frozen-prefix semantics
    for snapshot reads, and final-state audits. The chaos engine
    ({!Chaos}) drives faulted workloads straight into a stream. *)

module Stream = Stream
