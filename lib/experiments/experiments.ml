(** Umbrella module of the [experiments] library: one module per figure
    of the paper's evaluation (Sec. 6), each giving its title and a
    [compute] that sweeps its parameters, one {!Exp_common.in_sim} point
    per row. {!Exp_common} owns the point's closed loop, the loader and
    the printer. See DESIGN.md's per-experiment index and EXPERIMENTS.md
    for paper-vs-measured results. *)

module Exp_common = Exp_common
module Fig10 = Fig10
module Fig11 = Fig11
module Fig12 = Fig12
module Fig13 = Fig13
module Fig14 = Fig14
module Fig15 = Fig15
module Fig16 = Fig16
module Fig17 = Fig17
module Fig18 = Fig18
module Ablations = Ablations
module Scan_bench = Scan_bench

let all : (string * string * (Exp_common.params -> Exp_common.row list)) list =
  [
    ("fig10", Fig10.title, Fig10.compute);
    ("fig11", Fig11.title, Fig11.compute);
    ("fig12", Fig12.title, Fig12.compute);
    ("fig13", Fig13.title, Fig13.compute);
    ("fig14", Fig14.title, fun params -> Fig14.compute params);
    ("fig15", Fig15.title, Fig15.compute);
    ("fig16", Fig16.title, Fig16.compute);
    ("fig17", Fig17.title, Fig17.compute);
    ("fig18", Fig18.title, Fig18.compute);
    ("ablate", Ablations.title, Ablations.compute);
  ]
