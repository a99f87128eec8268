(** The event bus: counts each emitted event, then fans it out to every
    attached sink.

    The bus itself keeps one per-kind count table and one per-kind
    argument-sum table (each of length [Trace.n_kinds]); {!emit} updates
    both in place {e before} calling any sink, so a sink handed an event
    already sees it counted. {!Counter.of_emitter} is a copy-free view of
    these tables — it is how a machine and its monitor read their
    statistics, so a machine with no extra observers carries no sink at
    all. Sinks are plain callbacks stored in an array; [emit] with no sinks
    is an index, two array stores and a loop over zero elements, so
    instrumented code paths stay cheap when nobody is listening, and it
    allocates nothing. Emission NEVER advances the virtual
    clock — observability is free in simulated time, which is what keeps the
    calibrated tables byte-identical with tracing on or off.

    Two side rails ride along with the int-arg bus: an optional {!Audit}
    chain for structured security decisions ({!audit_event}), and a
    finalizer registry ({!add_finalizer}/{!finalize}) so sinks with buffered
    state get flushed even on abnormal exit. *)

type sink = Trace.kind -> ts:int -> arg:int -> unit

type t

val create : unit -> t
val attach : t -> sink -> unit
val sink_count : t -> int
(** Attached sinks; the built-in table is not one. *)

val emit : t -> Trace.kind -> ts:int -> arg:int -> unit
(** Add one to the kind's count and [arg] to its argument sum, then call
    every sink in attach order. *)

val counts : t -> int array
val arg_sums : t -> int array
(** The built-in tables themselves, indexed by {!Trace.index} — shared,
    not copied; read them through {!Counter.of_emitter}. *)

(** {2 Audit rail} *)

val set_audit : t -> Audit.t option -> unit
(** Attach (or detach) the audit chain decisions are appended to. *)

val audit : t -> Audit.t option

val audit_event : t -> ts:int -> category:string -> verdict:Audit.verdict ->
  (unit -> string) -> unit
(** Append a decision record if an audit chain is attached. The detail
    thunk only runs when one is, keeping un-audited runs allocation-free. *)

(** {2 Finalizers} *)

val add_finalizer : t -> (now:int -> unit) -> unit
(** Register a flush/close hook, run in registration order by
    {!finalize}. *)

val finalize : t -> now:int -> unit
(** Run all registered finalizers and finalize the attached audit chain (if
    any). Idempotent: only the first call runs anything, so both the normal
    exit path and an exception handler may call it. *)

val finalized : t -> bool
