(** The concurrent jmp-edge store: the paper's graph-rewriting state.

    Conceptually this is the extension of the PAG with [jmp] edges (Fig. 4);
    operationally it is the ConcurrentHashMap of Section IV-A, keyed by
    [(direction, variable, context)]. Two record kinds per key:

    - {b Finished} (Fig. 3(a)): the complete [ReachableNodes] result — the
      exact step cost and the [(y, c'')] targets. Insert-if-absent: when two
      threads race, one wins and later lookups see a single consistent
      record.
    - {b Unfinished} (Fig. 3(b)): the [x ⟸jmp(s) O] marker recording that a
      query ran out of budget from this point. First insertion wins (the
      paper notes that preferring the larger [s] is cost-ineffective).

    Selective optimisation (Section IV-A): a Finished record is only kept
    when [cost >= tau_f] and an Unfinished record when [s >= tau_u]
    (defaults 100 and 10,000 — the paper's values for budget 75,000); this
    avoids flooding the map with shortcuts too cheap to pay for their own
    synchronisation.

    {b Layout.} One table per direction, each split into [shards] shards;
    a shard is an open-addressed int table ({!Parcfl_prim.Int_table})
    under its own mutex, keyed by the single int
    [Pack.unsafe_pack var ctx]. The value is an immutable
    {!Parcfl_cfl.Hooks.lookup} record holding both kinds. A write builds a
    new record (the old one plus the new kind) and replaces the binding
    under the shard lock; it never mutates a published record. A lookup
    therefore returns the stored record itself — or the shared
    {!Parcfl_cfl.Hooks.no_jmp} on a miss — and allocates nothing: no key
    tuple, no option, no copied result.

    {b Counters.} Hits and misses are counted on striped {!Parcfl_conc.Counter}s
    indexed by the [~worker] the solver passes to [lookup], each stripe on
    its own cache line, so parallel workers never write the same line. The
    sums are exact once the workers are quiescent and a monotone lower
    bound while they run. Record counts ({!n_finished}, {!n_unfinished})
    change only on a successful write and stay plain atomics. *)

type t

val create :
  ?shards:int ->
  ?tau_f:int ->
  ?tau_u:int ->
  ?directions:[ `Both | `Bwd_only ] ->
  unit ->
  t
(** [directions] (default [`Both]) restricts sharing to the PointsTo
    direction only — the configuration the paper describes explicitly; the
    forward dual is this implementation's extension (ablation benches
    measure its contribution). *)

val hooks : t -> Parcfl_cfl.Hooks.t
(** The solver-facing interface of this store. *)

val n_finished : t -> int
(** Finished records accepted (post-threshold). *)

val n_unfinished : t -> int

val n_jumps : t -> int
(** Table I's #Jumps: all jmp records added. *)

val n_hits : t -> int
(** Lookups that found a record (Finished or Unfinished), summed over the
    worker stripes. Lookups skipped because the store is restricted to
    [`Bwd_only] are not counted either way. *)

val n_misses : t -> int
(** Lookups that found no record for the key. *)

val tau_f : t -> int
val tau_u : t -> int

val histogram : t -> buckets:int -> int array * int array
(** [(finished, unfinished)] counts bucketed by [log2] of the steps saved
    per jmp edge (Fig. 7): bucket [i] counts records whose cost/threshold
    [s] satisfies [2^i <= s < 2^(i+1)]; the last bucket absorbs the
    overflow. *)

val clear : t -> unit

val export_finished :
  t -> generation:int -> ctx_store:Parcfl_pag.Ctx.store -> string
(** Serialize every Finished record to a generation-tagged text snapshot
    ([jmpsnap 1 gen=<g>] framing, one [fin] line per record). Unfinished
    records never travel: they are progress markers, not facts. Context ids
    are store-local, so each context is spelled out structurally (its
    call-site list) and re-interned on import. *)

val import_finished :
  t ->
  generation:int ->
  ctx_store:Parcfl_pag.Ctx.store ->
  string ->
  (int, string) result
(** Load a snapshot produced by {!export_finished} into this store,
    re-interning contexts against [ctx_store]. Returns the number of
    records installed (existing records win ties). A snapshot whose
    generation differs from [generation] is rejected before any record is
    touched — a record is only valid for the exact PAG it was derived
    from. A malformed line (including a variable id outside the packing
    range) also fails the import. *)
