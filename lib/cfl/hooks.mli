(** The data-sharing interface between the solver and a jmp-edge store.

    The solver (Algorithm 2) consults a store at every [ReachableNodes]
    entry point and records results/aborts back into it. Keeping the store
    behind this record of functions lets {!Parcfl_sharing} own the concurrent
    map while the solver stays a single code path (Algorithm 2 degenerates to
    Algorithm 1 when no hooks are installed).

    Directions: [Bwd] is the PointsTo direction (the paper's Fig. 3 —
    loads matched against stores); [Fwd] is the dual FlowsTo direction. *)

type dir = Bwd | Fwd

type target = Parcfl_pag.Pag.var * Parcfl_pag.Ctx.t
(** A [(y, c'')] member of the [rch] set reachable through the shortcut. *)

type finished = { cost : int; targets : target array }
(** Fig. 3(a): the full [ReachableNodes] result and the exact number of
    steps its computation consumed. *)

type lookup = {
  unfinished : int option;
      (** Fig. 3(b): [Some s] — a previous query ran out of budget from this
          point; a query whose remaining budget is [< s] terminates early.
          Checked before the finished shortcut (Algorithm 2 line 2). *)
  finished : finished option;
}

val no_jmp : lookup

type t = {
  lookup :
    dir -> Parcfl_pag.Pag.var -> Parcfl_pag.Ctx.t -> steps:int -> worker:int ->
    lookup;
      (** [steps] is the number of node traversals the querying thread has
          performed so far — a store may use it as a fine-grained progress
          clock (the simulator's virtual time); the concurrent store ignores
          it. [worker] is the querying worker's id; the concurrent store
          stripes its hit/miss counters by it. The result is returned
          as-is, so a store may hand out a shared immutable record (or
          {!no_jmp}) instead of allocating one per call. *)
  record_finished :
    dir -> Parcfl_pag.Pag.var -> Parcfl_pag.Ctx.t -> cost:int ->
    targets:target array -> unit;
  record_unfinished :
    dir -> Parcfl_pag.Pag.var -> Parcfl_pag.Ctx.t -> s:int -> unit;
}
