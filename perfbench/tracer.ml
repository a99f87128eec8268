(* Host-time and allocation attribution, measured from outside the program.

   A [t] is attached to a machine's emitter as an ordinary sink. At every
   span boundary the program emits it reads a host monotonic clock and the
   minor-word counter, and charges the interval since the previous boundary
   to the layer on top of its own stack (a layer's self time: its span's
   duration minus the part its children cover). The benchmark pushes and
   pops layers around the public calls it makes itself with [around].
   Intervals are contiguous, so the per-layer sums telescope to the traced
   interval; a mismatched [Span_end] or a stack overflow is counted, never
   hidden. Stamping allocates nothing, so the words charged to layers are
   the program's own. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let max_depth = 256

type t = {
  mutable on : bool;  (** Stamping happens only while set. *)
  ns : int array;  (** Self nanoseconds per layer. *)
  words : float array;  (** Self minor words per layer. *)
  calls : int array;  (** Times each layer was entered. *)
  stack : int array;
  mutable depth : int;
  mutable last_ns : int;
  last_w : float array;  (** One cell: the minor-word count at [last_ns]. *)
  mutable mismatched : int;  (** [Span_end]s that did not close the top. *)
  mutable overflowed : int;
  (* Spans of the lifecycle layers ([Layers.lifecycle]), kept for the
     session log. *)
  log_layer : int array;
  log_depth : int array;
  log_start : int array;
  log_stop : int array;
  log_open : int array;  (** Log index of the span open at each depth. *)
  mutable log_len : int;
}

let create ?(log_capacity = 0) () =
  {
    on = true;
    ns = Array.make Layers.count 0;
    words = Array.make Layers.count 0.0;
    calls = Array.make Layers.count 0;
    stack = Array.make max_depth Layers.outside;
    depth = 0;
    last_ns = now_ns ();
    last_w = [| Gc.minor_words () |];
    mismatched = 0;
    overflowed = 0;
    log_layer = Array.make log_capacity 0;
    log_depth = Array.make log_capacity 0;
    log_start = Array.make log_capacity 0;
    log_stop = Array.make log_capacity 0;
    log_open = Array.make max_depth 0;
    log_len = 0;
  }

let stamp t =
  let n = now_ns () in
  let w = Gc.minor_words () in
  let top = t.stack.(t.depth) in
  t.ns.(top) <- t.ns.(top) + (n - t.last_ns);
  t.words.(top) <- t.words.(top) +. (w -. t.last_w.(0));
  t.last_ns <- n;
  t.last_w.(0) <- w

(* Restart the interval clock without charging anything: call at the start
   of a traced region, so set-up outside it is not counted. *)
let restart t =
  t.last_ns <- now_ns ();
  t.last_w.(0) <- Gc.minor_words ()

let enter t layer =
  stamp t;
  if t.depth + 1 >= max_depth then t.overflowed <- t.overflowed + 1
  else begin
    if Layers.lifecycle.(layer) then begin
      let i = t.log_len in
      if i < Array.length t.log_layer then begin
        t.log_layer.(i) <- layer;
        t.log_depth.(i) <- t.depth;
        t.log_start.(i) <- t.last_ns;
        t.log_stop.(i) <- t.last_ns;
        t.log_open.(t.depth) <- i;
        t.log_len <- i + 1
      end
      else t.log_open.(t.depth) <- -1 (* log full: this span goes unlogged *)
    end;
    t.depth <- t.depth + 1;
    t.stack.(t.depth) <- layer;
    t.calls.(layer) <- t.calls.(layer) + 1
  end

let leave t =
  stamp t;
  if t.depth = 0 then t.mismatched <- t.mismatched + 1
  else begin
    if Layers.lifecycle.(t.stack.(t.depth)) then begin
      let j = t.log_open.(t.depth - 1) in
      if j >= 0 then t.log_stop.(j) <- t.last_ns
    end;
    t.depth <- t.depth - 1
  end

let leave_layer t layer =
  if t.depth > 0 && t.stack.(t.depth) <> layer then t.mismatched <- t.mismatched + 1;
  leave t

(* The emitter sink: stamps span boundaries, ignores every other event. *)
let sink t : Obs.Emitter.sink =
 fun kind ~ts:_ ~arg:_ ->
  if t.on then
    match kind with
    | Obs.Trace.Span_begin p -> enter t Layers.by_phase_index.(Obs.Trace.phase_index p)
    | Obs.Trace.Span_end p -> leave_layer t Layers.by_phase_index.(Obs.Trace.phase_index p)
    | _ -> ()

(* Run [f] as a call into [layer]; the layer is left even if [f] raises. *)
let around tracer layer f =
  match tracer with
  | Some t when t.on -> (
      enter t layer;
      match f () with
      | v ->
          leave_layer t layer;
          v
      | exception e ->
          leave_layer t layer;
          raise e)
  | _ -> f ()

let total_ns t = Array.fold_left ( + ) 0 t.ns

let reset t =
  Array.fill t.ns 0 Layers.count 0;
  Array.fill t.words 0 Layers.count 0.0;
  Array.fill t.calls 0 Layers.count 0;
  t.depth <- 0;
  t.mismatched <- 0;
  t.overflowed <- 0;
  t.log_len <- 0;
  restart t
