(** Deterministic randomness.

    Every random structure in this repository (graphs, CNFs, tie-breaks in
    the greedy heuristics) draws from an explicit [Rng.t] seeded by an
    integer, so each experiment row is reproducible bit-for-bit. *)

type t

val make : int -> t
(** A generator seeded by the given integer. *)

val split : t -> t
(** A new generator whose stream is independent of (but determined by)
    the current state of the parent. *)

val copy : t -> t
(** An independent generator in the same state: it draws what [t] would
    draw next, and drawing from one does not advance the other. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform choice. @raise Invalid_argument on the empty list. *)

val pick_array : t -> 'a array -> 'a

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val shuffle_list : t -> 'a list -> 'a list

val sample_distinct_pair : t -> int -> int * int
(** Two distinct integers below the bound, unordered (smaller first).
    @raise Invalid_argument if the bound is less than 2. *)
