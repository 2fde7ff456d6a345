(** Umbrella module of the [mvcc] library: snapshot lifecycle management
    on top of the multiversion B-tree — the snapshot creation service
    with borrowing (Sec. 4.3), garbage collection (Sec. 4.4), and
    writable clones / branching versions (Sec. 5) — and the history
    events their operations emit for the consistency checker. *)

module Scs = Scs
module Gc = Gc
module Catalog = Catalog
module Branching = Branching
module Event = Event
