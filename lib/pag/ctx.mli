(** Calling contexts as hash-consed call-site stacks.

    The context-sensitive CFL (paper eq. 3) matches [param_i]/[ret_i] edges
    like balanced parentheses: a context is the stack of call sites still
    open along the current path. Contexts are interned so that a context is
    a single integer — constant-time equality/hash, and compact keys for the
    concurrent [jmp]-edge map.

    The store is shared by all query-processing domains; interning goes
    through a sharded lock-protected map, and id-to-entry lookups read a
    chunked table published through those same locks. *)

type t = private int
(** An interned context. Equality and hashing are those of [int]. *)

type store

val create_store : unit -> store

val empty : t
(** The empty stack (⊥ in the paper's notation, also used as the
    "don't-care" context of Unfinished jmp edges). *)

val is_empty : t -> bool

val push : store -> t -> int -> t
(** [push store c i] is the context [c] with call site [i] on top.
    @raise Invalid_argument unless [0 <= i < Pack.hi_limit] (call-site ids
    are checked against the same bound when the PAG is built). *)

val top : store -> t -> int option

val top_site : store -> t -> int
(** [top] without the option box: the top call site, or [-1] when empty. *)

val pop : store -> t -> t
(** [pop store empty = empty] — matching the paper's Algorithm 1 line 14
    remark that [⊥.pop() ≡ ⊥]. *)

val depth : store -> t -> int

val to_list : store -> t -> int list
(** Top-of-stack first. *)

val of_list : store -> int list -> t
(** Inverse of [to_list]. *)

val count : store -> int
(** Number of distinct non-empty contexts interned so far. *)

val equal : t -> t -> bool
val hash : t -> int
val to_int : t -> int
val unsafe_of_int : int -> t
(** For serialisation in tests; the int must come from [to_int] on the same
    store. *)

val pp : store -> Format.formatter -> t -> unit
