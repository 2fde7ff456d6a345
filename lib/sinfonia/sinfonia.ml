(** Umbrella module of the [sinfonia] library: a simulated
    implementation of the Sinfonia data-sharing service (Aguilera et
    al., SOSP 2007) that Minuet builds on.

    Storage lives at {!Memnode}s and is accessed through
    {!Mtx} minitransactions executed by the {!Coordinator}. *)

module Address = Address
module Config = Config
module Lock_table = Lock_table
module Heap = Heap
module Mtx = Mtx
module Redo_log = Redo_log
module Memnode = Memnode
module Cluster = Cluster
module Coordinator = Coordinator
