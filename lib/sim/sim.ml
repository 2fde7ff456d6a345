(** Umbrella module of the [sim] library.

    [Sim] exposes the discrete-event scheduler operations directly
    ([Sim.run], [Sim.delay], ...) along with the supporting components as
    submodules ([Sim.Rng], [Sim.Stats], ...). *)

module Rng = Rng
module Event_queue = Event_queue
module Stats = Stats
module Det = Det
module Resource = Resource
module Net = Net
include Scheduler
