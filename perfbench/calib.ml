(* Host-speed calibration. This VM shares its host with other tenants;
   while they are busy the simulator runs up to ~30% slower for minutes at
   a time. A probe, a fixed piece of the benchmark's own code, is timed
   between passes, and the end-to-end times are scaled by
   [reference_ns / median probe time]: they read as seconds on a host that
   runs the probe in [reference_ns]. No change to the simulator moves a
   probe.

   Each workload is scaled by the probe that tracked its drift best, in a
   16-minute trace of back-to-back passes on a 2-vCPU VM. [Stream] reads a
   buffer larger than the private caches, like the large heaps of [fig9]
   and [memshare]. [Alloc] builds and folds short lists, like the
   minor-heap churn of Bignum arithmetic in [serve]. *)

type probe = Stream | Alloc

let name = function Stream -> "stream" | Alloc -> "alloc"

(* Typical probe times on that VM, so scaled times stay close to raw. *)
let reference_ns = function Stream -> 13_000_000.0 | Alloc -> 18_000_000.0

let buffer_mib = 32

(* Outside the OCaml heap, so no collection scans it. *)
let buffer =
  lazy
    (let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (buffer_mib * 1024 * 128) in
     Bigarray.Array1.fill b 1;
     b)

let read (b : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  let acc = ref 0 in
  for i = 0 to Bigarray.Array1.dim b - 1 do
    acc := !acc + Bigarray.Array1.unsafe_get b i
  done;
  !acc

let stream () =
  let b = Lazy.force buffer in
  read b + read b

let alloc () =
  let acc = ref 0 in
  for _ = 1 to 20 do
    let l = List.init 20_000 (fun i -> (i, i + 1)) in
    acc := List.fold_left (fun s (a, b) -> s + a + b) !acc l
  done;
  !acc

(* Host nanoseconds of one run of the probe. *)
let sample probe =
  let t0 = Tracer.now_ns () in
  ignore (Sys.opaque_identity (match probe with Stream -> stream () | Alloc -> alloc ()));
  Tracer.now_ns () - t0

(* Resident MiB the stream buffer adds to the process, once it has been read. *)
let resident_mib () = if Lazy.is_val buffer then float_of_int buffer_mib else 0.0
