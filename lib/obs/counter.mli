(** Per-kind event counts and argument sums.

    This is the single source of truth for every statistic the simulator
    reports — [Sim.Stats.snapshot] is derived from one of these. The table
    a machine reads lives in its event bus: {!of_emitter} is a view that
    shares the emitter's built-in arrays, copies nothing and attaches no
    sink, so [Sim.Machine.counters] and the monitor's EMC statistics are
    the same two arrays {!Emitter.emit} updates. {!create}/{!attach} make
    a table of their own, for a scope narrower than the emitter's life
    (a journal replay, a unit test). *)

type t

val create : unit -> t

val attach : Emitter.t -> t -> t
(** Subscribe a table of its own to the emitter; returns [t] for
    chaining. *)

val of_emitter : Emitter.t -> t
(** The emitter's built-in table as a counter: counts every event emitted
    since {!Emitter.create}, costs no sink and no copy. *)

val count : t -> Trace.kind -> int
val arg_sum : t -> Trace.kind -> int
(** Sum of the event arguments for a kind — for kinds whose arg is a cycle
    measurement ([Emc_entry], [Emc _], [Tdcall]) this is total attributed
    cycles; for channel kinds it is total payload bytes. *)

val total : t -> int

val reset : t -> unit
(** Zero every count and sum. On an {!of_emitter} view this zeroes the
    emitter's own table, and with it the statistics of the machine that
    owns the emitter. *)
