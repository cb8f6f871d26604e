(** Fixed-size pool of worker domains.

    OCaml 5 domains are heavyweight (one per core is the intended use), so a
    run spawns [threads - 1] domains once and reuses them for every parallel
    region instead of spawning per task. Worker 0 is the calling domain —
    with [threads = 1] no domain is ever spawned and execution is strictly
    sequential, which keeps the [ParCFL^1] configurations deterministic.

    Exceptions raised by workers are captured and re-raised in the caller
    after all workers have stopped.

    {!with_pool} reuses one idle pool across calls, so code that runs many
    short parallel regions through it pays domain spawn/join once per
    process, not once per call. The idle pool outlives the region: its
    parked domains take part in every later minor collection of the
    process, which costs sequential code that follows a parallel phase
    ~30 µs per minor collection on a 2-vCPU host (a one-query solve on
    [luindex], about one minor collection per query, ran 4–35% slower with
    one parked domain). A process that is done with parallel work calls
    {!release_idle}. *)

type t

val create : threads:int -> t
(** [threads] >= 1; clamped to [recommended_domain_count ()] is the caller's
    policy decision, not enforced here (the paper oversubscribes 16 threads
    on 16 cores; we allow oversubscription on purpose). *)

val threads : t -> int

val run : t -> (worker:int -> unit) -> unit
(** [run pool f] executes [f ~worker] on every worker (ids [0..threads-1])
    and returns when all have finished. Not reentrant. *)

val shutdown : t -> unit
(** Joins all domains. The pool must not be used afterwards. Idempotent. *)

val with_pool : threads:int -> (t -> 'a) -> 'a
(** [with_pool ~threads f] runs [f] on a pool of [threads] workers that it
    {e borrows}: the process keeps at most one idle pool, and a call whose
    size matches takes it instead of spawning domains; otherwise (no idle
    pool, another size, or the idle pool already taken by an enclosing or
    concurrent [with_pool]) it creates one. Afterwards — also when [f]
    raises, since {!run} waits for every worker — the pool becomes the idle
    one, and a pool it displaces is shut down. A pool that [f] shut down is
    never kept. The pool must not escape [f]. Nesting and concurrent calls
    from several domains are safe and never wait for one another. The idle
    pool is shut down at exit. *)

val release_idle : unit -> unit
(** Shut down the idle pool, if there is one. A later {!with_pool} creates
    a fresh pool. Safe to call at any time: a pool lent to a running
    {!with_pool} is not idle and is not touched. *)
