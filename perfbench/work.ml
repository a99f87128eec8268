(* The three workloads. A pass is one workload's fixed unit of work; an
   operation is one cell of it (a Fig. 9 machine, a serve session, a
   memshare sandbox build). Every pass returns its host cost, its counts
   from the public API, its modelled values and a fingerprint of them, and
   a verdict per operation from the benchmark's own output checks. *)

let now_ns = Tracer.now_ns

(* {1 Per-pass accounting} *)

type op = {
  op_ns : int;  (** Host time of the operation. *)
  op_vcyc : int;  (** Modelled virtual cycles of the operation. *)
  op_ok : bool;  (** Completed and passed its output check. *)
}

(* Counts read through the public API, as deltas over a pass. *)
let c_emc = 0
let c_emc_mmu = 1
let c_page_faults = 2
let c_syscalls = 3
let c_timer_irqs = 4
let c_ctx_switches = 5
let c_ve_exits = 6
let c_channel_bytes = 7
let c_tlb_hits = 8
let c_tlb_misses = 9
let c_events = 10
let n_counts = 11

let probe m =
  let s = Sim.Machine.snapshot m in
  let c = Sim.Machine.counters m in
  let tlb = (Sim.Machine.kern m).Kernel.cpu.Hw.Cpu.tlb in
  [|
    s.Sim.Stats.emc_total;
    s.Sim.Stats.emc_mmu;
    s.Sim.Stats.page_faults;
    s.Sim.Stats.syscalls;
    s.Sim.Stats.timer_irqs;
    s.Sim.Stats.context_switches;
    s.Sim.Stats.ve_exits;
    Obs.Counter.arg_sum c Obs.Trace.Channel_send
    + Obs.Counter.arg_sum c Obs.Trace.Channel_recv;
    Hw.Tlb.hits tlb;
    Hw.Tlb.misses tlb;
    Obs.Counter.total c;
  |]

let add_delta acc ~before ~after =
  Array.iteri (fun i a -> acc.(i) <- acc.(i) + (a - before.(i))) after

let backed_frames m = Hw.Phys_mem.backed_count (Sim.Machine.kern m).Kernel.mem

(* Virtual cycles per privilege domain, from an [Obs.Attrib] sink. *)
let n_domains = Obs.Trace.n_domains

let domain_cycles a =
  Array.of_list
    (List.map (fun d -> Obs.Attrib.domain_cycles a d) Obs.Trace.all_domains)

type pass = {
  ops : op array;
  counts : int array;
  backed_max : int;  (** Largest simulated-memory footprint, in frames. *)
  vcyc : int array;  (** Per domain; zeros unless attribution was on. *)
  model : (string * float) list;  (** Modelled values; deterministic. *)
  fingerprint : string;  (** Digest of every modelled value and output. *)
}

(* Sinks a traced run attaches to each machine's emitter before boot. The
   tracer stays attached in every pass of such a run and is switched on only
   in the traced passes, so untraced and traced passes differ by the stamps
   alone. [attrib] is set for the warm-up pass only: the virtual-cycle
   breakdown is read from that pass, and no timed pass pays for it (serve's
   long-lived machine keeps the [Obs.Attrib] sink, switched off by the same
   flag). *)
type instruments = { tracer : Tracer.t option; mutable attrib : bool }

let bare () = { tracer = None; attrib = false }

let instrument inst obs =
  (match inst.tracer with Some t -> Obs.Emitter.attach obs (Tracer.sink t) | None -> ());
  if not inst.attrib then None
  else begin
    let a = Obs.Attrib.create () in
    let sink = Obs.Attrib.sink a in
    Obs.Emitter.attach obs (fun kind ~ts ~arg -> if inst.attrib then sink kind ~ts ~arg);
    Some a
  end

let close_attrib attrib m vcyc =
  match attrib with
  | None -> ()
  | Some a ->
      Obs.Attrib.close a ~now:(Hw.Cycles.now (Sim.Machine.clock m));
      Array.iteri (fun i c -> vcyc.(i) <- vcyc.(i) + c) (domain_cycles a)

(* The machine [setup_s] times: full Erebor, as every workload boots it. *)
let erebor_machine ?obs () = Sim.Machine.create ?obs ~setting:Sim.Config.Erebor_full ()

(* Run one operation: time it, and turn an exception into a failed check. *)
let timed_op f =
  let t0 = now_ns () in
  match f () with
  | vcyc, ok -> { op_ns = now_ns () - t0; op_vcyc = vcyc; op_ok = ok }
  | exception e ->
      prerr_endline ("operation failed: " ^ Printexc.to_string e);
      { op_ns = now_ns () - t0; op_vcyc = 0; op_ok = false }

let fingerprint_of buf = Digest.to_hex (Digest.string (Buffer.contents buf))

let add_stats buf (s : Sim.Stats.snapshot) =
  Printf.bprintf buf "%d %d %d %d %d %d %d %d %d %d %d %d %d %d\n" s.cycles
    s.page_faults s.timer_irqs s.ve_exits s.syscalls s.emc_total s.emc_mmu
    s.emc_cr s.emc_msr s.emc_idt s.emc_smap s.emc_ghci s.context_switches
    s.mmu_denies

(* {1 fig9: the paper's 5 programs x 5 settings, each on a fresh machine} *)

let paper_geomeans =
  [
    (Sim.Config.Libos_only, "fig9.libos_pct", 1.7);
    (Sim.Config.Erebor_mmu, "fig9.mmu_pct", 3.6);
    (Sim.Config.Erebor_exit, "fig9.exit_pct", 3.9);
    (Sim.Config.Erebor_full, "fig9.full_pct", 8.1);
  ]

let geomean_pct overs =
  let logsum = List.fold_left (fun acc o -> acc +. log (1.0 +. (o /. 100.0))) 0.0 overs in
  100.0 *. (exp (logsum /. float_of_int (List.length overs)) -. 1.0)

let fig9_cells =
  List.concat_map
    (fun (program, spec_fn) ->
      List.map (fun setting -> (program, spec_fn, setting)) Sim.Config.all)
    Workloads.Eval.all_programs

let fig9_pass inst =
  let counts = Array.make n_counts 0 in
  let vcyc = Array.make n_domains 0 in
  let backed = ref 0 in
  let buf = Buffer.create 4096 in
  let results = ref [] in
  let ops =
    List.map
      (fun (program, spec_fn, setting) ->
        let spec = spec_fn () in
        let obs = Obs.Emitter.create () in
        let attrib = instrument inst obs in
        timed_op (fun () ->
              let m =
                Tracer.around inst.tracer Layers.sim_boot (fun () -> Sim.Machine.create ~obs ~setting ())
              in
              let before = probe m in
              let r = Tracer.around inst.tracer Layers.sim_run (fun () -> Sim.Machine.run m spec) in
              add_delta counts ~before ~after:(probe m);
              backed := max !backed (backed_frames m);
              close_attrib attrib m vcyc;
              results := (program, setting, r) :: !results;
              Printf.bprintf buf "%s %s %d %d %s %s\n" program
                (Sim.Config.name setting) r.Sim.Machine.init_cycles
                r.Sim.Machine.run_cycles
                (Digest.to_hex (Digest.bytes r.Sim.Machine.output))
                (match r.Sim.Machine.killed with Some k -> k | None -> "-");
              add_stats buf r.Sim.Machine.stats;
              ( r.Sim.Machine.init_cycles + r.Sim.Machine.run_cycles,
                r.Sim.Machine.killed = None && Bytes.length r.Sim.Machine.output > 0 )))
      fig9_cells
  in
  let results = List.rev !results in
  let run_cycles program setting =
    List.find_map
      (fun (p, s, r) -> if p = program && s = setting then Some r.Sim.Machine.run_cycles else None)
      results
  in
  let overhead program setting =
    match (run_cycles program setting, run_cycles program Sim.Config.Native) with
    | Some now, Some base -> Some (100.0 *. ((float_of_int now /. float_of_int base) -. 1.0))
    | _ -> None
  in
  let geo =
    List.map
      (fun (setting, name, paper) ->
        let overs =
          List.filter_map
            (fun (program, _) -> overhead program setting)
            Workloads.Eval.all_programs
        in
        (name, (if overs = [] then nan else geomean_pct overs), paper))
      paper_geomeans
  in
  let err =
    List.fold_left (fun acc (_, g, paper) -> acc +. Float.abs (g -. paper)) 0.0 geo
    /. float_of_int (List.length geo)
  in
  let model = ("fig9_err_pp", err) :: List.map (fun (n, g, _) -> (n, g)) geo in
  List.iter (fun (n, v) -> Printf.bprintf buf "%s %.17g\n" n v) model;
  {
    ops = Array.of_list ops;
    counts;
    backed_max = !backed;
    vcyc;
    model;
    fingerprint = fingerprint_of buf;
  }

(* {1 serve: back-to-back attested sessions on one long-lived machine} *)

let serve_sessions = 64
let serve_bucket = 512
let serve_min_log2 = 8.0 (* 256 B *)
let serve_max_log2 = 20.0 (* 1 MiB *)

(* Channel wire framing of a sealed message: 12-byte nonce, 32-byte tag,
   8-byte length (see [Erebor.Channel.decode_sealed]). *)
let sealed_overhead = 12 + 32 + 8

(* Payload sizes: log-uniform over [256 B, 1 MiB], stratified so each of
   the [n] equal-width log bands holds one payload at a seeded position.
   The marginal distribution stays log-uniform while the pass total varies
   little from seed to seed; the order is a seeded shuffle. *)
let serve_sizes ~seed n =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let width = (serve_max_log2 -. serve_min_log2) /. float_of_int n in
  let sizes =
    Array.init n (fun i ->
        let e = serve_min_log2 +. (width *. (float_of_int i +. Random.State.float rng 1.0)) in
        min (1 lsl 20) (int_of_float (2.0 ** e)))
  in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = sizes.(i) in
    sizes.(i) <- sizes.(j);
    sizes.(j) <- t
  done;
  sizes

let serve_payloads ~seed n =
  let sizes = serve_sizes ~seed n in
  let rng = Random.State.make [| 0xda7a; seed |] in
  Array.map (fun len -> Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))) sizes

(* What the sandbox must answer: the SHA-256 of its input, then an echo of
   the input's first [len mod 1024] bytes, so reply lengths vary across the
   padding buckets. *)
let echo_len input = Bytes.length input mod 1024

let serve_expected input =
  Bytes.cat (Crypto.Sha256.digest_bytes input) (Bytes.sub input 0 (echo_len input))

let serve_confined = 64 * 1024

let serve_spec i input =
  {
    Sim.Machine.name = Printf.sprintf "serve-%d" i;
    sandboxed = true;
    timer_hz = 0;
    init_compute = 0;
    confined_bytes = serve_confined;
    nominal_confined_mb = 0;
    common = None;
    threads = 1;
    contention = 0.0;
    input;
    output_bucket = serve_bucket;
    body =
      (fun ops ->
        let data = ops.Sim.Machine.recv_input () in
        let digest = Crypto.Sha256.digest_bytes data in
        let pages = min (serve_confined / Hw.Phys_mem.page_size) (1 + (Bytes.length data / 65536)) in
        for page = 0 to pages - 1 do
          ops.Sim.Machine.touch_confined ~page
        done;
        for _ = 1 to 4 do
          ops.Sim.Machine.service ()
        done;
        ops.Sim.Machine.send_output (Bytes.cat digest (Bytes.sub data 0 (echo_len data))));
  }

let wire_ok ~output_len ~wire_len =
  let body = output_len + 8 in
  let padded = wire_len - sealed_overhead in
  padded mod serve_bucket = 0 && padded >= body && padded < body + serve_bucket

type serve = {
  machine : Sim.Machine.t;
  obs : Obs.Emitter.t;
  payloads : bytes array;
  expected : bytes array;
  attrib : Obs.Attrib.t option;
}

(* The deployment telemetry of a serving CVM: a flight-recorder journal and
   a per-kind sketch family, attached to the emitter before boot. With a
   tracer, two benchmark sinks bracket them, so their record calls are
   charged to [obs.sink] (sinks run in attach order). *)
let attach_telemetry inst obs ~journal =
  let bracket f =
    match inst.tracer with
    | Some t -> Obs.Emitter.attach obs (fun _ ~ts:_ ~arg:_ -> if t.Tracer.on then f t)
    | None -> ()
  in
  bracket (fun t -> Tracer.enter t Layers.obs_sink);
  Obs.Journal.Writer.attach ~machine:"serve" journal obs;
  ignore (Obs.Sketch.Family.attach obs (Obs.Sketch.Family.create ()));
  bracket (fun t -> Tracer.leave_layer t Layers.obs_sink)

(* The serving machine's emitter, with its telemetry (and, in a traced run,
   the benchmark's sinks) attached before boot. *)
let serve_emitter inst ~journal_path =
  let obs = Obs.Emitter.create () in
  let journal =
    Obs.Journal.Writer.create ~meta:[ ("workload", "serve") ] ~path:journal_path ()
  in
  attach_telemetry inst obs ~journal;
  (obs, instrument inst obs)

let finish_machine obs m = Obs.Emitter.finalize obs ~now:(Hw.Cycles.now (Sim.Machine.clock m))

let serve_prepare inst ~seed ~journal_path =
  let payloads = serve_payloads ~seed serve_sessions in
  let obs, attrib = serve_emitter inst ~journal_path in
  let machine = erebor_machine ~obs () in
  { machine; obs; payloads; expected = Array.map serve_expected payloads; attrib }

(* The session log of a traced pass: cumulative per-layer self times at
   each session boundary and where each session's spans start in the
   tracer's span log. Filled in place, so logging allocates nothing. *)
type session_log = { snap : int array array; log_from : int array }

let session_log () =
  {
    snap = Array.init (serve_sessions + 1) (fun _ -> Array.make Layers.count 0);
    log_from = Array.make (serve_sessions + 1) 0;
  }

let mark log inst i =
  match (log, inst.tracer) with
  | Some l, Some t when t.Tracer.on ->
      Tracer.stamp t;
      Array.blit t.Tracer.ns 0 l.snap.(i) 0 Layers.count;
      l.log_from.(i) <- t.Tracer.log_len
  | _ -> ()

type session_row = {
  sid : int;
  bytes : int;
  host_ns : int;
  self_ns : int array;  (** Per layer. *)
  spans : (int * int * int * int) list;  (** Layer, depth, start, stop (ns). *)
}

let session_rows l (t : Tracer.t) s (p : pass) =
  List.init serve_sessions (fun i ->
      {
        sid = i;
        bytes = Bytes.length s.payloads.(i);
        host_ns = p.ops.(i).op_ns;
        self_ns = Array.mapi (fun k v -> v - l.snap.(i).(k)) l.snap.(i + 1);
        spans =
          List.init (l.log_from.(i + 1) - l.log_from.(i)) (fun k ->
              let j = l.log_from.(i) + k in
              (t.log_layer.(j), t.log_depth.(j), t.log_start.(j), t.log_stop.(j)));
      })

let serve_pass ?log inst s =
  let m = s.machine in
  let counts = Array.make n_counts 0 in
  let vcyc0 = match s.attrib with Some a -> domain_cycles a | None -> Array.make n_domains 0 in
  let before = probe m in
  let buf = Buffer.create 4096 in
  let ops =
    Array.mapi
      (fun i input ->
        let spec = serve_spec i input in
        mark log inst i;
        timed_op (fun () ->
            let r = Tracer.around inst.tracer Layers.sim_run (fun () -> Sim.Machine.run m spec) in
            let ok =
              r.Sim.Machine.killed = None
              && Bytes.equal r.Sim.Machine.output s.expected.(i)
              && wire_ok ~output_len:(Bytes.length r.Sim.Machine.output)
                   ~wire_len:r.Sim.Machine.wire_output_len
            in
            Printf.bprintf buf "%d %d %d %d %d %s\n" i (Bytes.length input)
              r.Sim.Machine.init_cycles r.Sim.Machine.run_cycles
              r.Sim.Machine.wire_output_len
              (Digest.to_hex (Digest.bytes r.Sim.Machine.output));
            add_stats buf r.Sim.Machine.stats;
            (r.Sim.Machine.init_cycles + r.Sim.Machine.run_cycles, ok)))
      s.payloads
  in
  mark log inst serve_sessions;
  add_delta counts ~before ~after:(probe m);
  let vcyc =
    match s.attrib with
    | Some a -> Array.mapi (fun i c -> c - vcyc0.(i)) (domain_cycles a)
    | None -> Array.make n_domains 0
  in
  {
    ops;
    counts;
    backed_max = backed_frames m;
    vcyc;
    model = [];
    fingerprint = fingerprint_of buf;
  }

(* {1 memshare: the §9.2 fleet over one shared scaled model} *)

let memshare_sandboxes = 8
let mib = 1024 * 1024
let model_bytes = 4096 * mib / Workloads.Workload.mem_scale
let confined_bytes = 501 * mib / Workloads.Workload.mem_scale
let page = Hw.Phys_mem.page_size
let model_frames = model_bytes / page
let confined_frames = confined_bytes / page

let ok_or_fail = function Ok v -> v | Error e -> failwith e

let memshare_pass inst =
  let counts = Array.make n_counts 0 in
  let vcyc = Array.make n_domains 0 in
  let buf = Buffer.create 1024 in
  let obs = Obs.Emitter.create () in
  let attrib = instrument inst obs in
  let m = Tracer.around inst.tracer Layers.sim_boot (fun () -> erebor_machine ~obs ()) in
  let mgr = Option.get (Sim.Machine.manager m) in
  let kern = Sim.Machine.kern m in
  let clock = Sim.Machine.clock m in
  let cma_base = Kernel.Alloc.used kern.Kernel.cma in
  let before = probe m in
  let saving = ref nan in
  let sandbox = Layers.erebor_sandbox in
  let ops =
    Array.init memshare_sandboxes (fun i ->
        let n = i + 1 in
        timed_op (fun () ->
            let v0 = Hw.Cycles.now clock in
            let sb =
              ok_or_fail
                (Tracer.around inst.tracer sandbox (fun () ->
                     Erebor.Sandbox.create_sandbox mgr ~name:(Printf.sprintf "llama-%d" n)
                       ~confined_budget:confined_bytes))
            in
            ignore
              (ok_or_fail
                 (Tracer.around inst.tracer sandbox (fun () ->
                      Erebor.Sandbox.declare_confined mgr sb ~len:confined_bytes)));
            let base =
              ok_or_fail
                (Tracer.around inst.tracer sandbox (fun () ->
                     Erebor.Sandbox.attach_common mgr sb ~name:"llama2-7b" ~size:model_bytes))
            in
            ok_or_fail
              (Tracer.around inst.tracer Layers.kernel_populate (fun () ->
                   Kernel.populate kern (Erebor.Sandbox.main_task sb) ~start:base
                     ~len:model_bytes));
            let vc = Hw.Cycles.now clock - v0 in
            (* Frames actually backing the fleet: the shared model instance
               plus the confined frames drawn from the CMA region. *)
            let instance = Erebor.Sandbox.common_instance_frames mgr ~name:"llama2-7b" in
            let confined = Kernel.Alloc.used kern.Kernel.cma - cma_base in
            let shared = instance + confined in
            let replicated = n * (model_frames + confined_frames) in
            saving := 100.0 *. (1.0 -. (float_of_int shared /. float_of_int replicated));
            Printf.bprintf buf "%d %d %d %d %d\n" n instance confined shared vc;
            (vc, shared = model_frames + (n * confined_frames))))
  in
  add_delta counts ~before ~after:(probe m);
  close_attrib attrib m vcyc;
  add_stats buf (Sim.Machine.snapshot m);
  let model = [ ("memshare.saving_pct", !saving) ] in
  List.iter (fun (n, v) -> Printf.bprintf buf "%s %.17g\n" n v) model;
  { ops; counts; backed_max = backed_frames m; vcyc; model; fingerprint = fingerprint_of buf }
