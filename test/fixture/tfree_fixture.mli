(** Forked-process fixtures for everything that drives a real
    [tfree serve]: the serve tests, the golden transcript, the smokes and
    the load generator.

    Every forked child leaves with [Unix._exit], so it neither runs the
    parent's [at_exit] handlers nor flushes stdio buffers it inherited.
    Failures of the fixture itself raise [Failure] with a message that
    starts with the daemon's tag. *)

(** [run_daemon ~tag serve f] picks a fresh temp socket path for [tag]
    (removing any stale file there), forks a child that runs [serve path]
    and reports the count it returns over a pipe, waits until the socket
    exists, and runs [f path].  Then it shuts the daemon down (re-asking
    until it exits, since a shutdown can itself be shed), reaps it, and
    checks that it exited cleanly and left no socket behind.  Returns
    [f]'s result and the served count, or [None] when the child exec'd
    instead of returning.

    Readiness is "the socket file exists": a probe connection or op would
    move the connection, phase and op counters callers assert on.

    If [f] raises, the daemon is asked to shut down, polled until a short
    deadline, then SIGKILLed and reaped, and the original exception is
    re-raised. *)
val run_daemon : tag:string -> (string -> int) -> (string -> 'a) -> 'a * int option

(** {!run_daemon}, then fail with ["<tag>: served N, expected M"] unless
    the daemon served exactly [expect_served] queries (when given). *)
val with_daemon :
  ?expect_served:int -> tag:string -> (string -> int) -> (string -> 'a) -> 'a

(** [fork_clients n client] forks [n] processes; child [i] runs
    [client i] and writes the returned line (no newline) to a shared pipe,
    atomically as long as it stays under [PIPE_BUF].  [coordinate] runs in
    the parent once every child is forked.  Returns the lines in arrival
    order after reaping every child; fails if a child crashed or the line
    count is not [n]. *)
val fork_clients : ?coordinate:(unit -> unit) -> int -> (int -> string) -> string list

(** [int_at json ["cache"; "hits"]]: the numeric field at that member
    path, truncated to an int; fails naming the path when it is missing or
    not a number. *)
val int_at : Tfree_util.Jsonout.t -> string list -> int

(** [fork_child body] forks a child that runs [body] and leaves with
    [Unix._exit 0], or [Unix._exit 2] after naming the exception on
    stderr when [body] raises; returns the child's pid. *)
val fork_child : (unit -> unit) -> int

(** [reap ~nudge ~deadline_s pid] polls [pid] every 50 ms, calling
    [nudge] before each poll, until it exits ([Some status]) or
    [deadline_s] passes; then it SIGKILLs and reaps it and returns
    [None]. *)
val reap : nudge:(unit -> unit) -> deadline_s:float -> int -> Unix.process_status option
