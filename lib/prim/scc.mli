(** Strongly connected components of integer digraphs (Tarjan, iterative,
    over int-array stacks).

    Used for (1) collapsing recursion cycles of the call graph — the paper's
    prerequisite for bounded calling contexts (Section IV-A), (2) eliminating
    points-to cycles, and (3) computing connection distances as longest paths
    over the acyclic condensation (Section III-C2). *)

type t = {
  comp_of : int array;  (** node → component id, components numbered in reverse
                            topological order: an edge u→v has
                            [comp_of.(u) >= comp_of.(v)]. *)
  n_comps : int;
  members : int list array;  (** component id → member nodes *)
}

val compute : n:int -> succs:(int -> int list) -> t
(** [compute ~n ~succs] runs Tarjan's algorithm on nodes [0..n-1] with
    successor function [succs]. *)

val condensation : t -> succs:(int -> int list) -> int list array
(** Successor lists of the condensed DAG (no duplicates, no self-loops). *)

val longest_path_through : dag:int list array -> weight:(int -> int) -> int array
(** [longest_path_through ~dag ~weight] returns, for every node of the DAG,
    the weight of the heaviest path passing through it, where [weight c] is
    the weight contributed by node [c]. The DAG must be indexed in reverse
    topological order as produced by {!condensation}. *)

val is_trivial : t -> int -> bool
(** [is_trivial t c] is true when component [c] has a single member. Note a
    single member with a self-loop is still reported trivial; callers that
    care about cycles must use {!has_self_loop}. *)

val has_self_loop : t -> succs:(int -> int list) -> int -> bool
(** Whether component [c] contains a cycle under [succs] (the same
    successor function {!compute} ran with): true for every multi-member
    component, and for a singleton exactly when its member lists itself as
    a successor — the case {!is_trivial} cannot distinguish. *)
