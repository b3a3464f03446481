(** Fixed-size domain pool for embarrassingly parallel measurement sweeps.

    The experiment harness measures thousands of independent, deterministically
    seeded [(n, seed)] cells; this module fans them over OCaml 5 domains.
    Results are always collected in index order and every index is computed
    exactly once, so for pure cell functions the output is {e identical} to
    the sequential [Array.init]/[List.map] — only wall-clock changes with the
    job count.

    The worker count is resolved, in priority order, from {!set_jobs} (the
    CLI's [--jobs]), the [TFREE_JOBS] environment variable, and
    [Domain.recommended_domain_count] — and is then capped at the hardware
    core count: domains share one stop-the-world minor collector, so
    oversubscribing cores makes every collection a cross-domain scheduling
    stall (measured 4-5× slower, not faster, on a single-core host).  At
    [jobs = 1] — and for calls nested inside a pool task — execution is plain
    sequential code with no domain, lock, or allocation overhead beyond the
    result array. *)

(** Effective job count (≥ 1): the requested ceiling capped by the hardware
    core count. *)
val jobs : unit -> int

(** Set the requested job ceiling for the rest of the process (clamped to
    [1, 64]); takes precedence over [TFREE_JOBS]. *)
val set_jobs : int -> unit

(** [parallel_init n f] is [Array.init n f] computed on the pool.  [f] must
    tolerate being called from any domain in any order (the harness's cells
    derive everything from their index, so they do).  Chunks of indices are
    claimed dynamically for load balance; exceptions raised by [f] are
    re-raised in the caller after the batch drains.  An explicit [?jobs] is
    used exactly as given (no hardware cap) — tests rely on this to exercise
    true multi-domain execution regardless of host shape. *)
val parallel_init : ?jobs:int -> int -> (int -> 'a) -> 'a array

(** [parallel_map f xs] is [List.map f xs] computed on the pool, preserving
    order. *)
val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
