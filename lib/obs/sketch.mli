(** Mergeable relative-error quantile sketch (DDSketch-style log-gamma
    buckets).

    Values land in buckets [i = ceil (ln v / ln gamma)] with
    [gamma = (1+alpha)/(1-alpha)], so every quantile estimate is within a
    relative error of [alpha] of some value actually recorded (plus at
    most 1 absolute from integer rounding; values below [1 / 2 alpha]
    occupy one bucket per integer and are exact). It is the library's
    only quantile estimator: request latency ({!Request}), journal
    queries ({!Query}) and the metrics exposition ({!Metrics}) all read
    one. Sketches from different machines {!merge} with no accuracy
    loss.

    Determinism contract: the sketch state is a pure function of the
    multiset of recorded values — record order, merge order and merge
    grouping never change it — so {!serialize} output is byte-identical
    for any aggregation schedule. {!merge} is exactly associative and
    commutative, including across {!create}d, {!deserialize}d and merged
    operands, and including the collapse-lowest path. *)

type t

val default_alpha : float
(** 0.01 — 1% relative error. *)

val create : ?alpha:float -> ?capacity:int -> unit -> t
(** A fresh sketch. [alpha] (default {!default_alpha}) is the relative
    accuracy target, must be in (0, 1). [capacity] bounds the number of
    live buckets: when a new maximum would exceed it, the lowest buckets
    are collapsed into the floor bucket (tail accuracy is preserved; the
    collapsed low end degrades gracefully). Default: enough buckets for
    the full int range, so no collapse ever occurs (~2150 at 1%). The
    bucket array is allocated once here; {!record} never allocates. *)

val alpha : t -> float
val capacity : t -> int

val record : t -> int -> unit
(** Record one value. Allocation-free in steady state (the cold
    collapse-lowest path runs only when a new maximum crosses
    [capacity]). Values [<= 0] are counted in a dedicated zero bucket. *)

val reset : t -> unit
(** Empty the sketch in place, keeping [alpha] and [capacity].
    Allocation-free; costs one pass over the live buckets. *)

val count : t -> int
val sum : t -> int

val min_value : t -> int
(** Smallest recorded value; 0 for an empty sketch. *)

val max_value : t -> int
(** Largest recorded value; 0 for an empty sketch. *)

val mean : t -> float

val quantile : t -> p:float -> int
(** Quantile estimate. Edges are exact: an
    empty sketch returns 0 at every [p]; [p] is clamped to [[0, 1]];
    [p <= 0.0] returns {!min_value}; [p >= 1.0] returns {!max_value}; a
    single-sample sketch returns that sample at every [p]. In between,
    the estimate is within relative error [alpha] (+1 for integer
    rounding) of the exact rank-[ceil (p * n)] order statistic, and is
    clamped to the observed [[min, max]]. The relative-error bound holds
    for non-negative streams (latencies); negative values share the zero
    bucket and are pinned only by the min clamp. *)

val merge : into:t -> t -> unit
(** Fold [src] into [into] (the source is left untouched). Exactly
    associative and commutative: any merge tree over the same sketches
    leaves [into] in the same state. Raises [Invalid_argument] if the
    two sketches have different [alpha]/[capacity], or on self-merge. *)

val buckets : t -> (int * int) list
(** Non-empty live buckets as [(index, count)], ascending — for tests,
    debugging and re-bucketed expositions ({!Metrics}). *)

val estimate : t -> int -> int
(** The midpoint value estimate for a bucket index (what {!quantile}
    reports for ranks landing in that bucket). *)

val zeros : t -> int
(** Count of recorded values [<= 0]. *)

val bucket_floor : t -> int
(** Current collapse floor (0 until a collapse occurs). *)

val serialize : t -> string
(** Canonical compact binary encoding ("ESK1" magic, varint-packed) for
    cross-domain transport. Byte equality is state equality. *)

val deserialize : string -> (t, string) result
(** Parse {!serialize} output; [Error] describes the first malformed
    field (bad magic, truncation, count mismatch, trailing bytes). *)

(** Per-kind sketch family attachable as an emitter sink: every event's
    argument is recorded into its kind's sketch. *)
module Family : sig
  type sketch = t
  type t

  val create : ?alpha:float -> ?capacity:int -> unit -> t
  val attach : Emitter.t -> t -> t
  val get : t -> Trace.kind -> sketch

  val merge : into:t -> t -> unit
  (** Kind-wise {!Sketch.merge}. *)
end
