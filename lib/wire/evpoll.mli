(** A poll(2)-backed readiness wait for the serve event loop and the
    deadline readers.

    select(2) caps every descriptor at [FD_SETSIZE] (~1024): a daemon
    holding thousands of connections — or a client library living in a
    process that merely has 1024 other fds open — crashes with
    [EINVAL] the moment a descriptor crosses the cap.  poll(2) has no
    such ceiling, so everything in {!Service} that used to sit in a
    select now sits here.

    Semantics match the selects they replace: a descriptor at EOF,
    half-closed, reset or invalid reports as readable, and the caller's
    [read] surfaces the real condition through its existing error paths.
    An interrupting signal ([EINTR]) surfaces as "nothing ready", never
    an exception — every caller loops under a wall-clock deadline and
    simply re-polls. *)

(** [wait_in fds ~timeout_s] blocks until at least one of [fds] is
    readable (or erroring/at EOF, which reads surface), the timeout
    expires, or a signal interrupts; returns the ready subset in [fds]
    order (empty on timeout or [EINTR]).  A negative [timeout_s] waits
    forever; a tiny positive one is rounded {e up} to the next
    millisecond so a not-yet-expired deadline cannot spin. *)
val wait_in : Unix.file_descr list -> timeout_s:float -> Unix.file_descr list

(** [readable fd ~timeout_s] is [wait_in [fd]] collapsed to a boolean:
    [true] when [fd] is readable (or at EOF/error), [false] on timeout or
    [EINTR].  The single-fd wait of the client's deadline reads. *)
val readable : Unix.file_descr -> timeout_s:float -> bool
