(* Time-bucketed sliding-window sink, keyed to the VIRTUAL clock. A fixed
   ring of [nbuckets] buckets, each [width] virtual cycles wide, holds
   per-kind event counts and arg sums; a configurable subset of kinds also
   keeps one quantile sketch per bucket, so percentiles over the last N
   windows are a merge-on-read into a scratch sketch. The ring rotates
   when an event's timestamp crosses the current bucket's end — i.e.
   rotation is driven by the virtual clock the events already carry,
   never by wall time, and recording never advances that clock.

   The record path is allocation-free: counts live in flat preallocated
   int arrays indexed by [slot * n_kinds + kind], sketches are allocated
   once and reset in place on rotation. Read-side queries may allocate
   (they run off the hot path). *)

type t = {
  width : int;            (* virtual cycles per bucket *)
  nbuckets : int;         (* ring size *)
  ghz : float;            (* virtual clock rate, for per-second rates *)
  mutable cur : int;      (* ring slot of the current bucket *)
  mutable cur_start : int;(* ts at which the current bucket began *)
  counts : int array;     (* [slot * n_kinds + kind] -> events *)
  sums : int array;       (* [slot * n_kinds + kind] -> arg sum *)
  totals : int array;     (* lifetime per-kind event count *)
  hist_slot : int array;  (* kind -> tracked slot, or -1 if untracked *)
  n_hist : int;
  sketches : Sketch.t array; (* [slot * n_hist + h] *)
  scratch : Sketch.t;     (* merge-on-read target *)
}

let default_hist_kinds =
  [ Trace.Emc_entry; Trace.Req_end; Trace.Tdcall; Trace.Vmcall ]

let create ?(hist_kinds = default_hist_kinds) ?(ghz = 2.1) ~width ~buckets ()
    =
  if width <= 0 then invalid_arg "Window.create: width must be positive";
  if buckets <= 0 then invalid_arg "Window.create: buckets must be positive";
  let n_hist = List.length hist_kinds in
  let hist_slot = Array.make Trace.n_kinds (-1) in
  List.iteri (fun h k -> hist_slot.(Trace.index k) <- h) hist_kinds;
  {
    width;
    nbuckets = buckets;
    ghz;
    cur = 0;
    cur_start = 0;
    counts = Array.make (buckets * Trace.n_kinds) 0;
    sums = Array.make (buckets * Trace.n_kinds) 0;
    totals = Array.make Trace.n_kinds 0;
    hist_slot;
    n_hist;
    sketches = Array.init (buckets * n_hist) (fun _ -> Sketch.create ());
    scratch = Sketch.create ();
  }

let width t = t.width
let buckets t = t.nbuckets
let ghz t = t.ghz
let hist_tracked t kind = t.hist_slot.(Trace.index kind) >= 0

let clear_slot t s =
  Array.fill t.counts (s * Trace.n_kinds) Trace.n_kinds 0;
  Array.fill t.sums (s * Trace.n_kinds) Trace.n_kinds 0;
  for h = 0 to t.n_hist - 1 do
    Sketch.reset t.sketches.((s * t.n_hist) + h)
  done

(* Rotate the ring so [now] falls inside the current bucket. A gap larger
   than the whole ring clears every bucket in one pass and jumps the start
   forward (keeping bucket alignment), so a long idle period costs
   O(nbuckets), not O(gap / width). *)
let advance t ~now =
  if now >= t.cur_start + t.width then begin
    let k = (now - t.cur_start) / t.width in
    if k >= t.nbuckets then begin
      for s = 0 to t.nbuckets - 1 do
        clear_slot t s
      done;
      t.cur_start <- t.cur_start + (k * t.width)
    end
    else
      for _ = 1 to k do
        t.cur <- (if t.cur + 1 = t.nbuckets then 0 else t.cur + 1);
        clear_slot t t.cur;
        t.cur_start <- t.cur_start + t.width
      done
  end

let record t kind ~ts ~arg =
  advance t ~now:ts;
  let i = Trace.index kind in
  let base = (t.cur * Trace.n_kinds) + i in
  t.counts.(base) <- t.counts.(base) + 1;
  t.sums.(base) <- t.sums.(base) + arg;
  t.totals.(i) <- t.totals.(i) + 1;
  let h = t.hist_slot.(i) in
  if h >= 0 then Sketch.record t.sketches.((t.cur * t.n_hist) + h) arg

let sink t kind ~ts ~arg = record t kind ~ts ~arg
let attach emitter t =
  Emitter.attach emitter (sink t);
  t

(* Read side: fold over the last [windows] buckets, current included. *)

let fold_last t ?windows f init =
  let n =
    match windows with
    | None -> t.nbuckets
    | Some n when n <= 0 -> invalid_arg "Window: windows must be positive"
    | Some n -> min n t.nbuckets
  in
  let acc = ref init in
  for back = 0 to n - 1 do
    let s = (t.cur - back + t.nbuckets) mod t.nbuckets in
    acc := f !acc s
  done;
  !acc

let count t ?windows kind =
  let i = Trace.index kind in
  fold_last t ?windows (fun acc s -> acc + t.counts.((s * Trace.n_kinds) + i)) 0

let arg_sum t ?windows kind =
  let i = Trace.index kind in
  fold_last t ?windows (fun acc s -> acc + t.sums.((s * Trace.n_kinds) + i)) 0

let total_count t kind = t.totals.(Trace.index kind)

(* The virtual span the last [windows] buckets cover: full closed buckets
   plus the elapsed part of the current one ([now] defaults to the current
   bucket's end, which keeps the result deterministic without a clock). *)
let span_cycles t ?windows ?now () =
  let n =
    match windows with None -> t.nbuckets | Some n -> max 1 (min n t.nbuckets)
  in
  let in_cur =
    match now with
    | None -> t.width
    | Some now -> min t.width (max 1 (now - t.cur_start))
  in
  ((n - 1) * t.width) + in_cur

let rate t ?windows ?now kind =
  let cycles = span_cycles t ?windows ?now () in
  float_of_int (count t ?windows kind)
  /. (float_of_int cycles /. (t.ghz *. 1e9))

(* The tracked slot of [kind], for the read paths that need a sketch. *)
let slot_of t kind ~what =
  let h = t.hist_slot.(Trace.index kind) in
  if h < 0 then
    invalid_arg
      (Printf.sprintf "Window.%s: kind %s has no sketch" what (Trace.name kind));
  h

(* Merge-on-read: fold the last N windows' sketches into the scratch one.
   Merging is exact, so this equals one sketch fed the same samples. *)
let percentile t ?windows kind ~p =
  let h = slot_of t kind ~what:"percentile" in
  Sketch.reset t.scratch;
  fold_last t ?windows
    (fun () s -> Sketch.merge ~into:t.scratch t.sketches.((s * t.n_hist) + h))
    ();
  Sketch.quantile t.scratch ~p

let over t ?windows kind ~threshold =
  let h = slot_of t kind ~what:"over" in
  fold_last t ?windows
    (fun acc s ->
      acc + Sketch.count_above t.sketches.((s * t.n_hist) + h) threshold)
    0

let to_json t ?now () =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\"width_cycles\":%d,\"buckets\":%d,\"span_cycles\":%d,\"kinds\":["
    t.width t.nbuckets
    (span_cycles t ?now ());
  let first = ref true in
  List.iter
    (fun kind ->
      let c = count t kind in
      if c > 0 then begin
        if !first then first := false else Buffer.add_char buf ',';
        Printf.bprintf buf
          "{\"kind\":\"%s\",\"count\":%d,\"arg_sum\":%d,\"rate_per_s\":%.2f,\"total\":%d"
          (Trace.name kind) c (arg_sum t kind)
          (rate t ?now kind)
          (total_count t kind);
        if hist_tracked t kind then
          Printf.bprintf buf ",\"p50\":%d,\"p95\":%d,\"p99\":%d"
            (percentile t kind ~p:0.50)
            (percentile t kind ~p:0.95)
            (percentile t kind ~p:0.99);
        Buffer.add_char buf '}'
      end)
    Trace.all;
  Buffer.add_string buf "]}";
  Buffer.contents buf
