(** Deterministic chaos engine for Minuet.

    {!Nemesis} injects faults driven by the simulation RNG — memnode
    crash/recover storms, client-to-memnode partitions, latency/loss
    spikes, coordinator stalls that orphan locks mid-2PC, and snapshot
    service outages. {!Workload} drives a mixed
    read/update/insert/scan/snapshot workload (or, in branching mode,
    clone/version traffic) through traced sessions. {!Checked} is the
    protocol every checked run follows: lease recovery, phased storms,
    quiesce, structural audits and a streaming checker
    ({!Check.Stream}) fed every event as it happens. {!Runner} drives
    the workload through it with a structural audit after every phase. {!Histgen} synthesizes chaos-shaped histories at scales a
    real run can't reach, for checker benchmarks and falsification. A
    whole run is a pure function of its seed: same seed, same faults,
    same history, same verdict. *)

module Nemesis = Nemesis
module Checked = Checked
module Workload = Workload
module Runner = Runner
module Histgen = Histgen
