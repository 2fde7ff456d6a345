(** B-tree keys and fence keys.

    Keys are arbitrary byte strings ordered lexicographically. Every
    B-tree node carries two fence keys delimiting the half-open key range
    [\[low, high)] it is responsible for, whether or not those keys are
    present (Sec. 3, after Lehman–Yao and Graefe). *)

type t = string

val compare : t -> t -> int

(** Fence: a key or an infinity. The root spans [\[Neg_inf, Pos_inf)]. *)
type fence = Neg_inf | Key of t | Pos_inf

val fence_compare : fence -> fence -> int

val fence_equal : fence -> fence -> bool

val in_range : t -> low:fence -> high:fence -> bool
(** [in_range k ~low ~high] is [low <= k < high]. *)

val pp_fence : Format.formatter -> fence -> unit

val encode_fence : Codec.Enc.t -> fence -> unit

val decode_fence : Codec.Dec.t -> fence
