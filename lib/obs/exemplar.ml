(* Per-latency-band exemplar reservoir.

   A streaming sketch cannot know which requests will end up at p99, so
   exemplars are kept per log2 latency band and the band -> quantile
   mapping happens at read time: the aggregator asks for the band
   containing its merged quantile estimate and exports that band's
   exemplar. Each band keeps the single "best" request under a total
   order (latency descending, then trace id, machine, journal offset,
   timestamp ascending), so keep-the-winner is idempotent, commutative
   and associative and the merged reservoir is canonical for any merge
   order.

   The record path writes into preallocated mutable slots — no
   allocation in steady state (the machine name stored is the caller's
   existing string). *)

(* Band [b] holds latencies with [b] significant bits: band 0 is {<= 0},
   band 1 is {1}, band 2 is {2, 3}, band 3 is {4..7}, ... One band per
   bit keeps the reservoir at 63 slots; the sketch's 1% buckets would
   need ~2150. *)
let n_bands = 63

let band_of v =
  let b = ref 0 and v = ref (max v 0) in
  while !v > 0 do
    incr b;
    v := !v lsr 1
  done;
  !b

let band_lo b = if b <= 1 then b else 1 lsl (b - 1)
let band_hi b = if b = 0 then 0 else (1 lsl b) - 1

type slot = {
  mutable occupied : bool;
  mutable latency : int;
  mutable trace_id : int;
  mutable machine : string;
  mutable offset : int; (* journal byte offset of the frame holding the
                           request-end event; -1 when not recording *)
  mutable ts : int; (* virtual timestamp of the request end *)
}

type t = { slots : slot array }

type item = {
  i_latency : int;
  i_trace_id : int;
  i_machine : string;
  i_offset : int;
  i_ts : int;
}

let create () =
  {
    slots =
      Array.init n_bands (fun _ ->
          {
            occupied = false;
            latency = 0;
            trace_id = 0;
            machine = "";
            offset = -1;
            ts = 0;
          });
  }

(* Does the challenger beat the occupant? Total order => deterministic,
   merge-order-invariant winners. *)
let beats ~latency ~trace_id ~machine ~offset ~ts (s : slot) =
  latency > s.latency
  || (latency = s.latency
      && (trace_id < s.trace_id
         || (trace_id = s.trace_id
             && (machine < s.machine
                || (machine = s.machine
                   && (offset < s.offset
                      || (offset = s.offset && ts < s.ts)))))))

let record t ~latency ~trace_id ~machine ~offset ~ts =
  let s = t.slots.(band_of latency) in
  if (not s.occupied) || beats ~latency ~trace_id ~machine ~offset ~ts s then begin
    s.occupied <- true;
    s.latency <- latency;
    s.trace_id <- trace_id;
    s.machine <- machine;
    s.offset <- offset;
    s.ts <- ts
  end

let merge ~into src =
  if into == src then invalid_arg "Exemplar.merge: cannot merge into itself";
  for b = 0 to n_bands - 1 do
    let s = src.slots.(b) in
    if s.occupied then
      record into ~latency:s.latency ~trace_id:s.trace_id ~machine:s.machine
        ~offset:s.offset ~ts:s.ts
  done

let item_of (s : slot) =
  {
    i_latency = s.latency;
    i_trace_id = s.trace_id;
    i_machine = s.machine;
    i_offset = s.offset;
    i_ts = s.ts;
  }

let best t ~band =
  if band < 0 || band >= n_bands then None
  else
    let s = t.slots.(band) in
    if s.occupied then Some (item_of s) else None

(* The exemplar for a latency value: the one in [value]'s own band, or,
   if that band is empty (the merged quantile estimate may round into a
   band no concrete request hit), the nearest occupied band below, then
   above. *)
let for_value t value =
  let b0 = band_of value in
  let rec down b = if b < 0 then None else best t ~band:b |> function
    | Some _ as r -> r
    | None -> down (b - 1)
  in
  match down b0 with
  | Some _ as r -> r
  | None ->
      let rec up b =
        if b >= n_bands then None
        else best t ~band:b |> function Some _ as r -> r | None -> up (b + 1)
      in
      up (b0 + 1)

let items t =
  let out = ref [] in
  for b = n_bands - 1 downto 0 do
    if t.slots.(b).occupied then out := (b, item_of t.slots.(b)) :: !out
  done;
  !out

(* "EXM1" magic, varint band count, then per occupied band (ascending):
   band, latency, trace_id, machine string, offset+1 (so -1 encodes as
   an unsigned 0), ts. Canonical because the state is. *)
let serialize t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "EXM1";
  let occ = List.length (items t) in
  Wire.add_uvarint buf occ;
  Array.iteri
    (fun b (s : slot) ->
      if s.occupied then begin
        Wire.add_uvarint buf b;
        Wire.add_uvarint buf s.latency;
        Wire.add_uvarint buf s.trace_id;
        Wire.add_string buf s.machine;
        Wire.add_svarint buf s.offset;
        Wire.add_svarint buf s.ts
      end)
    t.slots;
  Buffer.contents buf

let deserialize str =
  try
    if String.length str < 4 || String.sub str 0 4 <> "EXM1" then
      raise (Wire.Bad "exemplar: bad magic");
    let pos = ref 4 in
    let n = Wire.uvarint str pos in
    let t = create () in
    let prev = ref (-1) in
    for _ = 1 to n do
      let b = Wire.uvarint str pos in
      if b <= !prev || b >= n_bands then
        raise (Wire.Bad "exemplar: bands not ascending");
      prev := b;
      let s = t.slots.(b) in
      s.occupied <- true;
      s.latency <- Wire.uvarint str pos;
      s.trace_id <- Wire.uvarint str pos;
      s.machine <- Wire.string str pos;
      s.offset <- Wire.svarint str pos;
      s.ts <- Wire.svarint str pos;
      if band_of s.latency <> b then
        raise (Wire.Bad "exemplar: latency outside its band")
    done;
    if !pos <> String.length str then
      raise (Wire.Bad "exemplar: trailing bytes");
    Result.Ok t
  with Wire.Bad e -> Result.Error e
