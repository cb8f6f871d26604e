(** Query scheduling (paper Section III-C).

    Batch queries are organised so that variables likely to add useful [jmp]
    edges run before the variables that can take them:

    - {b Grouping} (III-C1): variables connected through the [direct]
      relation — [(assign_l | assign_g | param_i | ret_i)*] — form a group
      (load/store edges do not connect their endpoints).
    - {b Ordering within a group} (III-C2): by {e connection distance} (CD),
      the length of the longest path through the variable in the group
      (modulo recursion — measured on the SCC condensation of the directed
      value-flow subgraph, weighting each SCC by its size). Shorter CD
      first.
    - {b Ordering across groups}: by {e dependence depth} (DD). A variable
      of type [t] has DD [1/L(t)] with [L] the type-containment level
      ({!Parcfl_lang.Types.level}); a group's DD is the minimum over its
      members, and groups are issued in increasing DD — deep container
      types (whose points-to sets the others' heap accesses depend on)
      first.
    - {b Load balancing}: groups larger than the mean size [M] are split
      and smaller ones merged with their neighbours, so each scheduling
      unit holds roughly [M] queries.

    The scheduler is independent of the frontend: it takes the level
    function [type_level] as an argument. *)

type t = {
  groups : Parcfl_pag.Pag.var array array;
      (** The scheduling units in issue order; concatenated they are a
          permutation of the input queries. *)
  n_components : int;  (** direct-relation components containing queries *)
  mean_group_size : float;  (** the paper's [S_g] (before split/merge) *)
}

type plan
(** The PAG-wide precomputation behind {!build}: the direct-relation
    components (a dense component id per variable), every variable's
    connection distance, and the components' dependence-depth issue order.
    Building a plan is O(nodes + edges); scheduling a batch against an
    existing plan is then a radix sort of the batch, with no graph-sized
    work or scratch. A plan is immutable and safe to share across domains. *)

val prepare :
  pag:Parcfl_pag.Pag.t -> type_level:(int -> int) -> plan
(** The uncached computation. [type_level] maps a frontend type id to its
    containment level [L(t)]; it must return 0 for unknown/primitive ([-1])
    types. *)

val plan_for :
  pag:Parcfl_pag.Pag.t -> type_level:(int -> int) -> plan
(** The plan for [(pag, type_level)], computed by {!prepare} at most once
    per pair and then reused: the per-program half of scheduling is paid
    once, every later batch pays only for its own queries. Both arguments
    are compared physically. The memo keeps one slot per PAG, held weakly
    (it never keeps a graph alive); a different [type_level] closure
    replaces that slot rather than adding one. Domain-safe: two domains
    racing on the same pair may both compute it, with identical results. *)

val component_roots : plan -> int array
(** Every variable's direct-relation component root (a representative
    variable id), indexed by variable id — the partition a cluster shard
    map is built over, so queries that share [jmp]-productive structure
    land on the same replica. A fresh copy; mutating it cannot corrupt the
    plan. *)

val build_with :
  ?order_within:bool ->
  ?order_across:bool ->
  plan ->
  Parcfl_pag.Pag.var array ->
  t
(** [order_within] (default true) applies the CD ordering inside groups;
    [order_across] (default true) applies the DD ordering across groups.
    Disabling either isolates one heuristic's contribution (ablation
    benches); grouping and load balancing always apply. *)

val build :
  ?order_within:bool ->
  ?order_across:bool ->
  pag:Parcfl_pag.Pag.t ->
  type_level:(int -> int) ->
  Parcfl_pag.Pag.var array ->
  t
(** [build_with] over {!plan_for}: the batch entry point. *)

val connection_distances : pag:Parcfl_pag.Pag.t -> int array
(** CD per variable (exposed for tests and ablation benches). *)

val flat_order : t -> Parcfl_pag.Pag.var array
(** All queries in scheduled order, groups flattened. *)

val group_sizes : t -> int array
(** Size of each scheduling unit in issue order (post split/merge) —
    telemetry feeds this to a group-size histogram. *)
