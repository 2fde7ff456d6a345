(** Umbrella module of the [btree] library: Minuet's distributed
    multiversion B-tree (the paper's core contribution). *)

module Bkey = Bkey
module Bnode = Bnode
module Bview = Bview
module Layout = Layout
module Node_alloc = Node_alloc
module Ops = Ops
module View_memo = View_memo
