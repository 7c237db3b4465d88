(** A set of PE indices [0 .. size-1] that the machines keep in place of
    scanning every PE each cycle: the PEs holding ready firings, the PEs
    with queued messages.  Adding is O(1) and allocates nothing;
    iteration is in ascending PE order — the order a full scan would
    visit them — and costs the members plus the displacement of those
    added since the last pass, never [size]. *)

type t

val create : int -> t
(** [create size] — an empty set over PEs [0 .. size-1]. *)

val add : t -> int -> unit
(** Adding a member twice is a no-op. *)

val is_empty : t -> bool

val iter : t -> (int -> unit) -> unit
(** [iter s f] applies [f] to every member in ascending order.  [f]
    must not add to [s]. *)

val retain : t -> (int -> bool) -> unit
(** [retain s keep] removes every member for which [keep] is false. *)
