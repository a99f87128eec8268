(* Tests for the lib/obs event subsystem: sinks in isolation, counter-sink
   equivalence against the legacy per-layer mirrors on every setting,
   MMU-guard denial accounting, and golden-trace determinism. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let journal_path name = Printf.sprintf ".test-journal-%s.ejrn" name
let rm_journal path = try Sys.remove path with Sys_error _ -> ()

(* The sinks the kept tooling attaches to a machine's bus: attribution,
   Chrome trace, per-kind sketches, post-mortem ring, a journal writer and
   a request collector. *)
let attach_kept_sinks ~journal ~requests obs =
  ignore (Obs.Attrib.attach obs (Obs.Attrib.create ()));
  ignore (Obs.Chrome.attach obs (Obs.Chrome.create ()));
  ignore (Obs.Sketch.Family.attach obs (Obs.Sketch.Family.create ()));
  ignore (Obs.Ring.attach obs (Obs.Ring.create ~capacity:64));
  Obs.Journal.Writer.attach ~machine:"sim" journal obs;
  Obs.Request.attach requests ~machine:"sim" obs

let small_spec ?(sandboxed = true) ?(body = fun _ -> ()) ?(common = None) () =
  {
    Sim.Machine.name = "obs-test";
    sandboxed;
    timer_hz = 1000;
    init_compute = 0;
    confined_bytes = 32 * 4096;
    nominal_confined_mb = 1;
    common;
    threads = 2;
    contention = 0.2;
    input = Bytes.of_string "obs test input";
    output_bucket = 256;
    body;
  }

(* Exercises most event sources: compute (timer IRQs + context switches),
   demand faults, host I/O (#VE + proxy), services, cpuid, sync, PTE churn
   and the channel echo. *)
let rich_body (ops : Sim.Machine.ops) =
  ops.Sim.Machine.compute 10_000_000;
  ops.Sim.Machine.cold_fault ();
  ops.Sim.Machine.host_io ~bytes:4096;
  ops.Sim.Machine.service ();
  ops.Sim.Machine.cpuid ();
  ops.Sim.Machine.sync_op ~contended:false;
  ops.Sim.Machine.pte_churn ~n:3;
  let input = ops.Sim.Machine.recv_input () in
  ops.Sim.Machine.send_output (Bytes.cat (Bytes.of_string "echo:") input)

(* ------------------------------------------------------------------ *)
(* Sinks in isolation                                                  *)
(* ------------------------------------------------------------------ *)

let test_emitter_fanout () =
  let obs = Obs.Emitter.create () in
  let a = Obs.Counter.attach obs (Obs.Counter.create ()) in
  let b = Obs.Counter.attach obs (Obs.Counter.create ()) in
  Alcotest.(check int) "two sinks" 2 (Obs.Emitter.sink_count obs);
  Obs.Emitter.emit obs Obs.Trace.Syscall ~ts:1 ~arg:0;
  Obs.Emitter.emit obs Obs.Trace.Syscall ~ts:2 ~arg:1;
  Obs.Emitter.emit obs Obs.Trace.Page_fault ~ts:3 ~arg:0x1000;
  List.iter
    (fun c ->
      Alcotest.(check int) "syscalls" 2 (Obs.Counter.count c Obs.Trace.Syscall);
      Alcotest.(check int) "faults" 1 (Obs.Counter.count c Obs.Trace.Page_fault);
      Alcotest.(check int) "total" 3 (Obs.Counter.total c);
      Alcotest.(check int) "arg sum" 1 (Obs.Counter.arg_sum c Obs.Trace.Syscall))
    [ a; b ];
  Obs.Counter.reset a;
  Alcotest.(check int) "reset" 0 (Obs.Counter.total a);
  Alcotest.(check int) "other sink untouched" 3 (Obs.Counter.total b)

let test_ring_wraparound () =
  let obs = Obs.Emitter.create () in
  let ring = Obs.Ring.attach obs (Obs.Ring.create ~capacity:8) in
  for i = 0 to 19 do
    Obs.Emitter.emit obs Obs.Trace.Syscall ~ts:(100 + i) ~arg:i
  done;
  Alcotest.(check int) "capacity" 8 (Obs.Ring.capacity ring);
  Alcotest.(check int) "length" 8 (Obs.Ring.length ring);
  Alcotest.(check int) "dropped" 12 (Obs.Ring.dropped ring);
  Alcotest.(check (list int)) "last 8, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun e -> e.Obs.Trace.arg) (Obs.Ring.to_list ring));
  Obs.Ring.clear ring;
  Alcotest.(check int) "cleared" 0 (Obs.Ring.length ring);
  Alcotest.(check int) "dropped reset" 0 (Obs.Ring.dropped ring);
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Obs.Ring.create ~capacity:0))

let test_with_span () =
  let obs = Obs.Emitter.create () in
  let rec_ = Obs.Chrome.attach obs (Obs.Chrome.create ()) in
  let clock = ref 10 in
  let result =
    Obs.with_span obs
      ~now:(fun () -> !clock)
      Obs.Trace.Run
      (fun () ->
        clock := 25;
        42)
  in
  Alcotest.(check int) "body result" 42 result;
  match Obs.Chrome.events rec_ with
  | [ b; e ] ->
      Alcotest.(check bool) "begin" true
        (b.Obs.Trace.kind = Obs.Trace.Span_begin Obs.Trace.Run
        && b.Obs.Trace.ts = 10);
      Alcotest.(check bool) "end" true
        (e.Obs.Trace.kind = Obs.Trace.Span_end Obs.Trace.Run
        && e.Obs.Trace.ts = 25)
  | evs -> Alcotest.failf "expected 2 span events, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Counter-sink equivalence with the legacy per-layer mirrors          *)
(* ------------------------------------------------------------------ *)

(* The machine snapshot is derived exclusively from the counter sink on the
   event bus; the refactor kept the original per-layer counters (kernel
   stats record, scheduler switch count, gate/guard counts) as mirrors.
   They must agree exactly, on every setting, over a body that exercises
   every event source. *)
let test_counter_equivalence () =
  List.iter
    (fun setting ->
      let name field = Sim.Config.name setting ^ " " ^ field in
      let m =
        Sim.Machine.create ~frames:32768 ~cma_frames:4096 ~setting ()
      in
      let r = Sim.Machine.run m (small_spec ~body:rich_body ()) in
      Alcotest.(check bool) (name "not killed") true (r.Sim.Machine.killed = None);
      let snap = Sim.Machine.snapshot m in
      let kern = Sim.Machine.kern m in
      let st = kern.Kernel.stats in
      Alcotest.(check int) (name "page faults") st.Kernel.page_faults
        snap.Sim.Stats.page_faults;
      Alcotest.(check int) (name "syscalls") st.Kernel.syscalls
        snap.Sim.Stats.syscalls;
      Alcotest.(check int) (name "timer irqs") st.Kernel.timer_irqs
        snap.Sim.Stats.timer_irqs;
      Alcotest.(check int) (name "ve exits") st.Kernel.ve_exits
        snap.Sim.Stats.ve_exits;
      Alcotest.(check int) (name "context switches")
        (Kernel.Sched.switches kern.Kernel.sched)
        snap.Sim.Stats.context_switches;
      (match Sim.Machine.manager m with
      | Some mgr ->
          let mon = Erebor.Sandbox.manager_monitor mgr in
          let es = Erebor.Monitor.emc_stats mon in
          Alcotest.(check int) (name "emc total")
            (Erebor.Monitor.emc_total mon)
            snap.Sim.Stats.emc_total;
          Alcotest.(check int) (name "emc mmu") es.Erebor.Monitor.mmu
            snap.Sim.Stats.emc_mmu;
          Alcotest.(check int) (name "emc cr") es.Erebor.Monitor.cr
            snap.Sim.Stats.emc_cr;
          Alcotest.(check int) (name "emc msr") es.Erebor.Monitor.msr
            snap.Sim.Stats.emc_msr;
          Alcotest.(check int) (name "emc idt") es.Erebor.Monitor.idt
            snap.Sim.Stats.emc_idt;
          Alcotest.(check int) (name "emc smap") es.Erebor.Monitor.smap
            snap.Sim.Stats.emc_smap;
          Alcotest.(check int) (name "emc ghci") es.Erebor.Monitor.ghci
            snap.Sim.Stats.emc_ghci;
          Alcotest.(check int) (name "mmu denies")
            (Erebor.Mmu_guard.denied_count (Erebor.Monitor.guard mon))
            snap.Sim.Stats.mmu_denies
      | None ->
          Alcotest.(check int) (name "no monitor: emc total") 0
            snap.Sim.Stats.emc_total;
          Alcotest.(check int) (name "no monitor: denies") 0
            snap.Sim.Stats.mmu_denies);
      (* The counter sink exposed by the machine is the snapshot's source. *)
      let c = Sim.Machine.counters m in
      Alcotest.(check int) (name "counter is source")
        (Obs.Counter.count c Obs.Trace.Page_fault)
        snap.Sim.Stats.page_faults)
    Sim.Config.all

(* ------------------------------------------------------------------ *)
(* The bus's built-in per-kind table                                   *)
(* ------------------------------------------------------------------ *)

(* [Machine.counters] is a view of the emitter's own table, not a sink: on
   every setting it must agree, kind by kind, with a Counter sink attached
   to the same emitter before boot. *)
let test_bus_table_matches_sink () =
  List.iter
    (fun setting ->
      let name field = Sim.Config.name setting ^ " " ^ field in
      let obs = Obs.Emitter.create () in
      let sink = Obs.Counter.attach obs (Obs.Counter.create ()) in
      let m =
        Sim.Machine.create ~obs ~frames:32768 ~cma_frames:4096 ~setting ()
      in
      ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
      let table = Sim.Machine.counters m in
      Alcotest.(check bool) (name "events counted") true
        (Obs.Counter.total table > 0);
      List.iter
        (fun k ->
          let kn = name (Obs.Trace.name k) in
          Alcotest.(check int) (kn ^ " count") (Obs.Counter.count sink k)
            (Obs.Counter.count table k);
          Alcotest.(check int) (kn ^ " arg sum") (Obs.Counter.arg_sum sink k)
            (Obs.Counter.arg_sum table k))
        Obs.Trace.all)
    Sim.Config.all

(* The monitor reads its EMC statistics through the same table. *)
let test_emc_stats_match_snapshot () =
  List.iter
    (fun setting ->
      let m =
        Sim.Machine.create ~frames:32768 ~cma_frames:4096 ~setting ()
      in
      ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
      let mon =
        Erebor.Sandbox.manager_monitor (Option.get (Sim.Machine.manager m))
      in
      let es = Erebor.Monitor.emc_stats mon in
      let s = Sim.Machine.snapshot m in
      Alcotest.(check (list int))
        (Sim.Config.name setting ^ " emc_stats = snapshot")
        Sim.Stats.
          [
            s.emc_mmu; s.emc_cr; s.emc_msr; s.emc_idt; s.emc_smap; s.emc_ghci;
          ]
        Erebor.Monitor.[ es.mmu; es.cr; es.msr; es.idt; es.smap; es.ghci ];
      if Sim.Config.emc_privops setting then
        Alcotest.(check bool) (Sim.Config.name setting ^ " mmu EMCs seen") true
          (es.Erebor.Monitor.mmu > 0))
    (List.filter Sim.Config.has_monitor Sim.Config.all)

(* With no sink attached, emission is the table update alone: it counts
   the event and allocates nothing. *)
let test_emit_no_sinks_zero_alloc () =
  let obs = Obs.Emitter.create () in
  let view = Obs.Counter.of_emitter obs in
  let emit i =
    let kind = if i land 1 = 0 then Obs.Trace.Syscall else Obs.Trace.emc_mmu in
    Obs.Emitter.emit obs kind ~ts:i ~arg:3
  in
  emit 0;
  let c =
    Workloads.Bench_gate.zero_alloc_check ~name:"bare emit" ~n:10_000
      ~unit_:"event" ~what:"emits" emit
  in
  Alcotest.(check bool) c.Workloads.Bench_gate.detail true
    c.Workloads.Bench_gate.ok;
  Alcotest.(check int) "no sink" 0 (Obs.Emitter.sink_count obs);
  Alcotest.(check int) "syscalls counted" 5_001
    (Obs.Counter.count view Obs.Trace.Syscall);
  Alcotest.(check int) "emc.mmu counted" 5_000
    (Obs.Counter.count view Obs.Trace.emc_mmu);
  Alcotest.(check int) "args summed" (3 * 5_000)
    (Obs.Counter.arg_sum view Obs.Trace.emc_mmu);
  Obs.Counter.reset view;
  Alcotest.(check int) "reset on a view zeroes the emitter's table" 0
    (Obs.Counter.total (Obs.Counter.of_emitter obs))

(* The record path [serve] pays: an emitter with a per-kind sketch family
   attached allocates nothing per event in steady state. *)
let test_family_record_zero_alloc () =
  let obs = Obs.Emitter.create () in
  let family = Obs.Sketch.Family.attach obs (Obs.Sketch.Family.create ()) in
  let emit i =
    Obs.Emitter.emit obs Obs.Trace.Req_end ~ts:i ~arg:(1 + (i land 0xFFFF))
  in
  for i = 0 to 0xFFFF do
    emit i
  done;
  let c =
    Workloads.Bench_gate.zero_alloc_check ~name:"family record" ~n:100_000
      ~unit_:"event" ~what:"emits into a sketch family" emit
  in
  Alcotest.(check bool) c.Workloads.Bench_gate.detail true
    c.Workloads.Bench_gate.ok;
  Alcotest.(check int) "every event recorded" (0x10000 + 100_000)
    (Obs.Sketch.count (Obs.Sketch.Family.get family Obs.Trace.Req_end))

(* The documented order: [emit] updates the table before it calls any
   sink, so a sink attached before boot finds every event it is handed
   already counted (and its argument already summed). *)
let test_table_counts_before_sinks () =
  let obs = Obs.Emitter.create () in
  let view = Obs.Counter.of_emitter obs in
  let seen = Array.make Obs.Trace.n_kinds 0 in
  let sums = Array.make Obs.Trace.n_kinds 0 in
  let lagging = ref 0 in
  Obs.Emitter.attach obs (fun kind ~ts:_ ~arg ->
      let i = Obs.Trace.index kind in
      seen.(i) <- seen.(i) + 1;
      sums.(i) <- sums.(i) + arg;
      if
        Obs.Counter.count view kind <> seen.(i)
        || Obs.Counter.arg_sum view kind <> sums.(i)
      then incr lagging);
  let m =
    Sim.Machine.create ~obs ~frames:32768 ~cma_frames:4096
      ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  Alcotest.(check bool) "events handed to the sink" true
    (Array.fold_left ( + ) 0 seen > 0);
  Alcotest.(check int) "events the table had not yet counted" 0 !lagging

(* Satellite: the new emc_idt snapshot field really counts lidt services
   (machine boot under Erebor programs the IDT through the monitor). *)
let test_emc_idt_counted () =
  let m =
    Sim.Machine.create ~frames:32768 ~cma_frames:4096
      ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  let kern = Sim.Machine.kern m in
  for _ = 1 to 3 do
    kern.Kernel.privops.Kernel.Privops.lidt (Hw.Idt.create ())
  done;
  let snap = Sim.Machine.snapshot m in
  let mon =
    Erebor.Sandbox.manager_monitor (Option.get (Sim.Machine.manager m))
  in
  let es = Erebor.Monitor.emc_stats mon in
  Alcotest.(check int) "idt mirrors monitor" es.Erebor.Monitor.idt
    snap.Sim.Stats.emc_idt;
  Alcotest.(check int) "idt services counted" 3 snap.Sim.Stats.emc_idt;
  (* And it participates in diff/pp. *)
  let d = Sim.Stats.diff ~before:Sim.Stats.zero ~after:snap in
  Alcotest.(check int) "diff keeps idt" snap.Sim.Stats.emc_idt
    d.Sim.Stats.emc_idt;
  let rendered = Fmt.str "%a" Sim.Stats.pp snap in
  Alcotest.(check bool) "pp reports denies" true
    (contains ~sub:"denies=" rendered)

(* Satellite: MMU-guard denial counts surface in the snapshot, so security
   tests can assert exact counts. A benign run must show zero; every
   policy-violating PTE store afterwards must count exactly once. *)
let test_denial_counts () =
  let m =
    Sim.Machine.create ~frames:32768 ~cma_frames:4096
      ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  let snap0 = Sim.Machine.snapshot m in
  Alcotest.(check int) "benign run: zero denials" 0 snap0.Sim.Stats.mmu_denies;
  let kern = Sim.Machine.kern m in
  let denied = ref 0 in
  for i = 0 to 4 do
    (* Frames far above anything the kernel registered as page tables:
       stores there must be rejected by the guard. *)
    let pte_addr = Hw.Phys_mem.addr_of_pfn (20_000 + i) + 8 in
    let pte = Hw.Pte.make ~pfn:(100 + i) Hw.Pte.default_flags in
    match kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr pte with
    | () -> ()
    | exception Erebor.Monitor.Policy_violation _ -> incr denied
  done;
  Alcotest.(check int) "all stores denied" 5 !denied;
  let snap1 = Sim.Machine.snapshot m in
  Alcotest.(check int) "denials surfaced exactly" 5 snap1.Sim.Stats.mmu_denies;
  let mon =
    Erebor.Sandbox.manager_monitor (Option.get (Sim.Machine.manager m))
  in
  Alcotest.(check int) "matches guard mirror"
    (Erebor.Mmu_guard.denied_count (Erebor.Monitor.guard mon))
    snap1.Sim.Stats.mmu_denies

(* ------------------------------------------------------------------ *)
(* Golden-trace determinism and Chrome export                          *)
(* ------------------------------------------------------------------ *)

let traced_run () =
  let obs = Obs.Emitter.create () in
  let rec_ = Obs.Chrome.attach obs (Obs.Chrome.create ()) in
  let m =
    Sim.Machine.create ~obs ~frames:32768 ~cma_frames:4096
      ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  (m, rec_)

let test_golden_trace_determinism () =
  let _, r1 = traced_run () in
  let _, r2 = traced_run () in
  Alcotest.(check bool) "non-empty" true (Obs.Chrome.length r1 > 0);
  Alcotest.(check int) "same length" (Obs.Chrome.length r1)
    (Obs.Chrome.length r2);
  Alcotest.(check bool) "byte-identical event stream" true
    (Obs.Chrome.events r1 = Obs.Chrome.events r2);
  Alcotest.(check bool) "identical chrome JSON" true
    (String.equal (Obs.Chrome.to_chrome_json r1) (Obs.Chrome.to_chrome_json r2))

let test_trace_counts_match_snapshot () =
  let m, rec_ = traced_run () in
  let snap = Sim.Machine.snapshot m in
  let count k =
    let n = ref 0 in
    Obs.Chrome.iter rec_ (fun e -> if e.Obs.Trace.kind = k then incr n);
    !n
  in
  List.iter
    (fun (label, k, expected) ->
      Alcotest.(check int) label expected (count k))
    [
      ("page faults", Obs.Trace.Page_fault, snap.Sim.Stats.page_faults);
      ("syscalls", Obs.Trace.Syscall, snap.Sim.Stats.syscalls);
      ("timer irqs", Obs.Trace.Timer_irq, snap.Sim.Stats.timer_irqs);
      ("ve exits", Obs.Trace.Ve_exit, snap.Sim.Stats.ve_exits);
      ("ctx switches", Obs.Trace.Context_switch, snap.Sim.Stats.context_switches);
      ("emc entries", Obs.Trace.Emc_entry, snap.Sim.Stats.emc_total);
      ("emc mmu", Obs.Trace.emc_mmu, snap.Sim.Stats.emc_mmu);
      ("emc ghci", Obs.Trace.emc_ghci, snap.Sim.Stats.emc_ghci);
      ("denies", Obs.Trace.Mmu_deny, snap.Sim.Stats.mmu_denies);
    ];
  (* Boot / attest / run spans all appear, balanced. *)
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Obs.Trace.phase_name phase ^ " span balanced")
        true
        (count (Obs.Trace.span_begin phase) = count (Obs.Trace.span_end phase)
        && count (Obs.Trace.span_begin phase) > 0))
    [ Obs.Trace.Boot; Obs.Trace.Attest; Obs.Trace.Run ];
  let json = Obs.Chrome.to_chrome_json rec_ in
  Alcotest.(check bool) "chrome JSON object" true
    (String.length json > 2 && json.[0] = '{');
  Alcotest.(check bool) "has traceEvents" true
    (contains ~sub:"\"traceEvents\"" json);
  let jsonl = Obs.Chrome.to_jsonl rec_ in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "one JSONL line per event" (Obs.Chrome.length rec_)
    (List.length lines)

(* ------------------------------------------------------------------ *)
(* Chrome hardening: JSON escaping, unbalanced span stacks             *)
(* ------------------------------------------------------------------ *)

let count_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let c = ref 0 in
  for i = 0 to m - n do
    if String.sub s i n = sub then incr c
  done;
  !c

let test_chrome_escape () =
  Alcotest.(check string) "plain untouched" "syscall"
    (Obs.Wire.escape_json "syscall");
  Alcotest.(check string) "quote and backslash" "a\\\"b\\\\c"
    (Obs.Wire.escape_json "a\"b\\c");
  Alcotest.(check string) "newline" "x\\ny" (Obs.Wire.escape_json "x\ny");
  Alcotest.(check string) "control char" "\\u0001"
    (Obs.Wire.escape_json "\001")

let test_chrome_unbalanced () =
  let obs = Obs.Emitter.create () in
  let rec_ = Obs.Chrome.attach obs (Obs.Chrome.create ()) in
  (* A stray end with no open span must be dropped... *)
  Obs.Emitter.emit obs (Obs.Trace.span_end Obs.Trace.Run) ~ts:5 ~arg:0;
  (* ...and spans left open at export time get synthetic E events. *)
  Obs.Emitter.emit obs (Obs.Trace.span_begin Obs.Trace.Run) ~ts:10 ~arg:0;
  Obs.Emitter.emit obs (Obs.Trace.span_begin Obs.Trace.Emc_gate) ~ts:20 ~arg:0;
  Obs.Emitter.emit obs Obs.Trace.Syscall ~ts:30 ~arg:0;
  let json = Obs.Chrome.to_chrome_json rec_ in
  Alcotest.(check int) "every B has an E" (count_sub ~sub:{|"ph":"B"|} json)
    (count_sub ~sub:{|"ph":"E"|} json);
  Alcotest.(check int) "two spans closed synthetically" 2
    (count_sub ~sub:{|"ph":"E"|} json);
  (* Synthetic ends carry the last seen timestamp, keeping ts monotone. *)
  Alcotest.(check int) "synthetic ends at last ts" 2
    (count_sub ~sub:{|"ph":"E","ts":30|} json);
  (* A balanced stream is unaffected by the hardening. *)
  let obs2 = Obs.Emitter.create () in
  let rec2 = Obs.Chrome.attach obs2 (Obs.Chrome.create ()) in
  Obs.Emitter.emit obs2 (Obs.Trace.span_begin Obs.Trace.Run) ~ts:1 ~arg:0;
  Obs.Emitter.emit obs2 (Obs.Trace.span_end Obs.Trace.Run) ~ts:2 ~arg:0;
  let json2 = Obs.Chrome.to_chrome_json rec2 in
  Alcotest.(check int) "balanced: one B" 1 (count_sub ~sub:{|"ph":"B"|} json2);
  Alcotest.(check int) "balanced: one E" 1 (count_sub ~sub:{|"ph":"E"|} json2)

(* ------------------------------------------------------------------ *)
(* Cycle attribution: unit semantics, conservation on real machines    *)
(* ------------------------------------------------------------------ *)

(* A hand-driven event stream exercising nesting, same-phase collapse,
   stray ends and the close-time flush:
     0..10   outside any span          -> root
     10..30  boot                      -> boot
     30..50  boot > gate               -> gate
     50..60  boot > gate (re-entered)  -> gate
     60..80  boot > gate > gate(same)  -> gate (collapsed, no new node)
     80..90  boot > gate               -> gate
     90..100 boot                      -> boot
     100..120 closed                   -> root *)
let synthetic_attrib () =
  let obs = Obs.Emitter.create () in
  let a = Obs.Attrib.attach obs (Obs.Attrib.create ()) in
  let b p ts = Obs.Emitter.emit obs (Obs.Trace.span_begin p) ~ts ~arg:0 in
  let e p ts = Obs.Emitter.emit obs (Obs.Trace.span_end p) ~ts ~arg:0 in
  b Obs.Trace.Boot 10;
  b Obs.Trace.Emc_gate 30;
  e Obs.Trace.Emc_gate 50;
  b Obs.Trace.Emc_gate 50;
  b Obs.Trace.Emc_gate 60;
  e Obs.Trace.Emc_gate 80;
  e Obs.Trace.Emc_gate 90;
  e Obs.Trace.Boot 100;
  (* Stray end at depth 0: ignored, never underflows. *)
  e Obs.Trace.Run 100;
  Obs.Attrib.close a ~now:120;
  a

let test_attrib_semantics () =
  let a = synthetic_attrib () in
  Alcotest.(check int) "balanced" 0 (Obs.Attrib.open_depth a);
  Alcotest.(check int) "total = final clock" 120 (Obs.Attrib.total a);
  Alcotest.(check int) "unattributed" 30 (Obs.Attrib.unattributed a);
  Alcotest.(check int) "boot self" 30
    (Obs.Attrib.phase_cycles a Obs.Trace.Boot);
  Alcotest.(check int) "gate self" 60
    (Obs.Attrib.phase_cycles a Obs.Trace.Emc_gate);
  Alcotest.(check int) "kernel domain" 30
    (Obs.Attrib.domain_cycles a Obs.Trace.Kernel);
  Alcotest.(check int) "monitor domain" 60
    (Obs.Attrib.domain_cycles a Obs.Trace.Monitor);
  (match Obs.Attrib.breakdown a with
  | [ (Obs.Trace.Kernel, Obs.Trace.Boot, 30);
      (Obs.Trace.Monitor, Obs.Trace.Emc_gate, 60) ] -> ()
  | other -> Alcotest.failf "unexpected breakdown (%d rows)" (List.length other));
  (* The context tree collapsed the same-phase re-entry: one gate node. *)
  let v = Obs.Attrib.view a in
  Alcotest.(check int) "root total" 120 v.Obs.Attrib.vtotal;
  Alcotest.(check int) "root self" 30 v.Obs.Attrib.vself;
  (match v.Obs.Attrib.vkids with
  | [ boot ] -> (
      Alcotest.(check bool) "boot node" true
        (boot.Obs.Attrib.vphase = Some Obs.Trace.Boot);
      Alcotest.(check int) "boot subtree" 90 boot.Obs.Attrib.vtotal;
      match boot.Obs.Attrib.vkids with
      | [ gate ] ->
          Alcotest.(check bool) "gate node" true
            (gate.Obs.Attrib.vphase = Some Obs.Trace.Emc_gate);
          Alcotest.(check int) "gate self" 60 gate.Obs.Attrib.vself;
          Alcotest.(check (list int)) "gate is a leaf" []
            (List.map (fun k -> k.Obs.Attrib.vself) gate.Obs.Attrib.vkids)
      | ks -> Alcotest.failf "expected 1 gate child, got %d" (List.length ks))
  | ks -> Alcotest.failf "expected 1 root child, got %d" (List.length ks))

(* HARD INVARIANT: on a real machine, attributed cycles sum exactly to the
   final clock — every cycle lands in exactly one domain x phase context.
   Checked on every setting with every event source exercised. *)
let test_attrib_conservation () =
  List.iter
    (fun setting ->
      let name field = Sim.Config.name setting ^ " " ^ field in
      let obs = Obs.Emitter.create () in
      let a = Obs.Attrib.attach obs (Obs.Attrib.create ()) in
      let m = Sim.Machine.create ~frames:32768 ~cma_frames:4096 ~obs ~setting () in
      ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
      let total = Hw.Cycles.now (Sim.Machine.clock m) in
      Obs.Attrib.close a ~now:total;
      Alcotest.(check int) (name "spans balanced") 0 (Obs.Attrib.open_depth a);
      Alcotest.(check int) (name "conservation: total") total (Obs.Attrib.total a);
      let summed =
        List.fold_left
          (fun acc (_, _, c) -> acc + c)
          (Obs.Attrib.unattributed a)
          (Obs.Attrib.breakdown a)
      in
      Alcotest.(check int) (name "conservation: breakdown sums") total summed;
      Alcotest.(check int) (name "matches stats snapshot")
        (Sim.Machine.snapshot m).Sim.Stats.cycles total)
    Sim.Config.all

(* Attaching the attribution sink complement must not move the clock: the
   run is cycle-identical to a bare run of the same spec. *)
let test_attrib_sinks_free () =
  let bare =
    let m =
      Sim.Machine.create ~frames:32768 ~cma_frames:4096
        ~setting:Sim.Config.Erebor_full ()
    in
    ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
    Hw.Cycles.now (Sim.Machine.clock m)
  in
  let observed =
    let obs = Obs.Emitter.create () in
    ignore (Obs.Attrib.attach obs (Obs.Attrib.create ()));
    ignore (Obs.Chrome.attach obs (Obs.Chrome.create ()));
    ignore (Obs.Sketch.Family.attach obs (Obs.Sketch.Family.create ()));
    ignore (Obs.Ring.attach obs (Obs.Ring.create ~capacity:64));
    let m =
      Sim.Machine.create ~frames:32768 ~cma_frames:4096 ~obs
        ~setting:Sim.Config.Erebor_full ()
    in
    ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
    Hw.Cycles.now (Sim.Machine.clock m)
  in
  Alcotest.(check int) "sinks never advance the clock" bare observed

(* ------------------------------------------------------------------ *)
(* Flame and metrics exporters                                         *)
(* ------------------------------------------------------------------ *)

let test_flame_export () =
  let a = synthetic_attrib () in
  let folded = Obs.Flame.collapsed a in
  Alcotest.(check bool) "root line" true (contains ~sub:"erebor 30\n" folded);
  Alcotest.(check bool) "boot frame" true
    (contains ~sub:"erebor;kernel:boot 30\n" folded);
  Alcotest.(check bool) "nested gate frame" true
    (contains ~sub:"erebor;kernel:boot;monitor:gate 60\n" folded);
  (* Collapsed-stack wellformedness: "frames count" per line, counts
     summing to the attributed total. *)
  let sum =
    List.fold_left
      (fun acc line ->
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "malformed folded line %S" line
        | Some i ->
            acc + int_of_string (String.sub line (i + 1) (String.length line - i - 1)))
      0
      (List.filter
         (fun l -> l <> "")
         (String.split_on_char '\n' folded))
  in
  Alcotest.(check int) "folded counts sum to total" (Obs.Attrib.total a) sum;
  let tree = Obs.Flame.tree a in
  Alcotest.(check bool) "tree shows frames" true
    (contains ~sub:"kernel:boot" tree && contains ~sub:"monitor:gate" tree)

let test_metrics_export () =
  let obs = Obs.Emitter.create () in
  let counter = Obs.Counter.attach obs (Obs.Counter.create ()) in
  let family = Obs.Sketch.Family.attach obs (Obs.Sketch.Family.create ()) in
  let a = Obs.Attrib.attach obs (Obs.Attrib.create ()) in
  Obs.Emitter.emit obs (Obs.Trace.span_begin Obs.Trace.Boot) ~ts:10 ~arg:0;
  Obs.Emitter.emit obs Obs.Trace.Emc_entry ~ts:20 ~arg:1224;
  Obs.Emitter.emit obs Obs.Trace.Emc_entry ~ts:30 ~arg:1224;
  Obs.Emitter.emit obs (Obs.Trace.span_end Obs.Trace.Boot) ~ts:40 ~arg:0;
  Obs.Attrib.close a ~now:50;
  let reg = Obs.Metrics.create () in
  Obs.Metrics.add reg ~label:"test" ~counter ~family ~attrib:a ();
  let prom = Obs.Metrics.to_prometheus reg in
  Alcotest.(check bool) "counter family" true
    (contains ~sub:{|erebor_events_total{source="test",kind="emc"} 2|} prom);
  Alcotest.(check bool) "attribution family" true
    (contains
       ~sub:{|erebor_cycles_attributed_total{source="test",domain="kernel",phase="boot"} 30|}
       prom);
  Alcotest.(check bool) "unattributed row" true
    (contains ~sub:{|domain="none",phase="(outside)"} 20|} prom);
  Alcotest.(check bool) "histogram +Inf bucket" true
    (contains ~sub:{|le="+Inf"|} prom);
  (* Every sample line is "name{labels} value" with a parseable value. *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "malformed sample line %S" line
        | Some i ->
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            Alcotest.(check bool)
              (Printf.sprintf "numeric value in %S" line)
              true
              (float_of_string_opt v <> None)
      end)
    (String.split_on_char '\n' prom);
  Alcotest.(check string) "label escaping" {|a\"b\\c\nd|}
    (Obs.Metrics.escape_label "a\"b\\c\nd");
  (* The JSON rendition parses and reproduces the attribution totals. *)
  let module J = Workloads.Bench_gate.Json in
  match J.parse (Obs.Metrics.to_json reg) with
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  | Ok json -> (
      match Option.map (J.member "sources") (Some json) with
      | Some (Some (J.Arr [ src ])) ->
          let attribution = J.member "attribution" src in
          let total =
            Option.bind attribution (J.member "total")
          in
          Alcotest.(check bool) "json total" true (total = Some (J.Num 50.0))
      | _ -> Alcotest.fail "expected one source in metrics JSON")

(* ------------------------------------------------------------------ *)
(* Audit chain: tamper evidence                                        *)
(* ------------------------------------------------------------------ *)

let audit_test_key = Crypto.Sha256.digest_string "test audit key"

let replace_once ~sub ~by s =
  let n = String.length sub and m = String.length s in
  let rec find i = if i + n > m then None else if String.sub s i n = sub then Some i else find (i + 1) in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found" sub
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (m - i - n)

let sample_chain () =
  let chain = Obs.Audit.create ~key:audit_test_key in
  List.iteri
    (fun i (category, verdict, detail) ->
      Obs.Audit.append chain ~ts:(100 + (10 * i)) ~category ~verdict ~detail)
    [
      ("scan", Obs.Audit.Allow, "kernel image accepted: 2 sections");
      ("privop.cr", Obs.Audit.Allow, "write_cr3");
      ("mmu", Obs.Audit.Deny, "PTE store outside registered tables");
      ("sandbox", Obs.Audit.Kill, "kill id=3: rate \"limit\"\nexceeded");
      ("attest", Obs.Audit.Info, "mrtd=deadbeef mac=00112233");
    ];
  chain

let test_audit_chain_roundtrip () =
  let chain = sample_chain () in
  Alcotest.(check int) "length before finalize" 5 (Obs.Audit.length chain);
  Alcotest.(check bool) "not finalized yet" false (Obs.Audit.finalized chain);
  Obs.Audit.finalize chain ~now:999;
  Obs.Audit.finalize chain ~now:12_345 (* idempotent *);
  Alcotest.(check bool) "finalized" true (Obs.Audit.finalized chain);
  Alcotest.(check int) "close record not counted" 5 (Obs.Audit.length chain);
  let recs = Obs.Audit.records chain in
  Alcotest.(check int) "records incl. close" 6 (List.length recs);
  Alcotest.(check (list int)) "append order" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun r -> r.Obs.Audit.seq) recs);
  Alcotest.check_raises "append after finalize"
    (Invalid_argument "Audit.append: log already finalized") (fun () ->
      Obs.Audit.append chain ~ts:1 ~category:"scan" ~verdict:Obs.Audit.Allow
        ~detail:"late");
  let s = Obs.Audit.to_string chain in
  (match Obs.Audit.verify_string ~key:audit_test_key s with
  | Ok n -> Alcotest.(check int) "verifies with count" 5 n
  | Error e -> Alcotest.failf "intact chain rejected: %s" e);
  (* The escaped detail survives the JSONL roundtrip byte-for-byte. *)
  Alcotest.(check bool) "escaped newline on the wire" true
    (contains ~sub:{|rate \"limit\"\nexceeded|} s)

let expect_reject name tampered ~msg_frag =
  match Obs.Audit.verify_string ~key:audit_test_key tampered with
  | Ok _ -> Alcotest.failf "%s: tampered chain verified" name
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error %S mentions %S" name e msg_frag)
        true (contains ~sub:msg_frag e)

let test_audit_tamper_rejected () =
  let chain = sample_chain () in
  Obs.Audit.finalize chain ~now:999;
  let good = Obs.Audit.to_string chain in
  let lines = String.split_on_char '\n' (String.trim good) in
  let unlines ls = String.concat "\n" ls ^ "\n" in
  (* Flip a byte inside a field value: the record still parses, so the
     chain MAC is what catches it. *)
  expect_reject "flipped byte"
    (replace_once ~sub:"write_cr3" ~by:"write_cr4" good)
    ~msg_frag:"MAC mismatch";
  (* Same for a flipped hex digit in a stored MAC. *)
  expect_reject "flipped mac"
    (let mac2 = (List.nth (Obs.Audit.records chain) 2).Obs.Audit.mac in
     let flipped =
       String.mapi
         (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c)
         mac2
     in
     replace_once ~sub:mac2 ~by:flipped good)
    ~msg_frag:"MAC mismatch";
  (* Dropping a record breaks the sequence numbering. *)
  expect_reject "dropped record"
    (unlines (List.filteri (fun i _ -> i <> 2) lines))
    ~msg_frag:"sequence mismatch";
  (* So does swapping two adjacent records. *)
  expect_reject "swapped records"
    (unlines
       (List.mapi
          (fun i _ ->
            List.nth lines (if i = 1 then 2 else if i = 2 then 1 else i))
          lines))
    ~msg_frag:"sequence mismatch";
  (* Truncation: the close record is gone. *)
  expect_reject "truncated"
    (unlines (List.filteri (fun i _ -> i <> List.length lines - 1) lines))
    ~msg_frag:"truncated";
  (* A different key rejects everything from the genesis onward. *)
  (match Obs.Audit.verify_string ~key:(Bytes.of_string "wrong key") good with
  | Ok _ -> Alcotest.fail "wrong key verified"
  | Error e ->
      Alcotest.(check bool) "wrong key: first record flagged" true
        (contains ~sub:"record 0" e));
  expect_reject "empty log" "" ~msg_frag:"empty log";
  (* And the untampered rendering still verifies after all that. *)
  match Obs.Audit.verify_string ~key:audit_test_key good with
  | Ok 5 -> ()
  | Ok n -> Alcotest.failf "expected 5 records, got %d" n
  | Error e -> Alcotest.failf "control chain rejected: %s" e

let test_audit_emitter_rail () =
  let obs = Obs.Emitter.create () in
  (* No chain attached: the detail thunk must not even run. *)
  let ran = ref false in
  Obs.Emitter.audit_event obs ~ts:1 ~category:"scan" ~verdict:Obs.Audit.Allow
    (fun () ->
      ran := true;
      "detail");
  Alcotest.(check bool) "thunk skipped without chain" false !ran;
  let chain = Obs.Audit.create ~key:audit_test_key in
  Obs.Emitter.set_audit obs (Some chain);
  Obs.Emitter.audit_event obs ~ts:2 ~category:"scan" ~verdict:Obs.Audit.Deny
    (fun () ->
      ran := true;
      "bad section");
  Alcotest.(check bool) "thunk ran with chain" true !ran;
  Alcotest.(check int) "record appended" 1 (Obs.Audit.length chain);
  (* Emitter.finalize closes the attached chain. *)
  Obs.Emitter.finalize obs ~now:50;
  Alcotest.(check bool) "chain finalized via emitter" true
    (Obs.Audit.finalized chain);
  match Obs.Audit.verify_string ~key:audit_test_key (Obs.Audit.to_string chain) with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1 record, got %d" n
  | Error e -> Alcotest.failf "chain rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Request-scoped tracing: packing, windows, cross-machine trees       *)
(* ------------------------------------------------------------------ *)

let test_request_pack_roundtrip () =
  List.iter
    (fun (trace_id, sampled, root) ->
      let cx = { Obs.Request.trace_id; span_id = 7; sampled } in
      let cx', root' = Obs.Request.unpack (Obs.Request.pack cx ~root) in
      Alcotest.(check int) "trace id" trace_id cx'.Obs.Request.trace_id;
      Alcotest.(check bool) "sampled" sampled cx'.Obs.Request.sampled;
      Alcotest.(check bool) "root bit" root root';
      Alcotest.(check int) "span id does not travel" 0 cx'.Obs.Request.span_id)
    [ (1, true, true); (2, false, true); (1000, true, false); (0, false, false) ]

(* One emitter carries both the client-side (root) and the server-side
   (non-root) markers of the same trace — the in-process Erebor_full shape.
   The non-root Req_end must NOT close the root window. *)
let test_request_single_emitter_window () =
  let obs = Obs.Emitter.create () in
  let reqs = Obs.Request.create () in
  Obs.Request.attach reqs ~machine:"sim" obs;
  let cx = Obs.Request.mint reqs in
  let arg ~root = Obs.Request.pack cx ~root in
  Obs.Emitter.emit obs Obs.Trace.Req_begin ~ts:100 ~arg:(arg ~root:true);
  Obs.Emitter.emit obs (Obs.Trace.span_begin Obs.Trace.Attest) ~ts:110 ~arg:0;
  Obs.Emitter.emit obs (Obs.Trace.span_end Obs.Trace.Attest) ~ts:130 ~arg:0;
  (* Server-side end of the same trace: root bit clear, window stays open. *)
  Obs.Emitter.emit obs Obs.Trace.Req_end ~ts:150 ~arg:(arg ~root:false);
  Obs.Emitter.emit obs (Obs.Trace.span_begin Obs.Trace.Run) ~ts:160 ~arg:0;
  Obs.Emitter.emit obs (Obs.Trace.span_end Obs.Trace.Run) ~ts:190 ~arg:0;
  Obs.Emitter.emit obs Obs.Trace.Req_end ~ts:200 ~arg:(arg ~root:true);
  Alcotest.(check int) "one request completed" 1 (Obs.Request.completed reqs);
  Alcotest.(check (option int)) "root cycles span the full window" (Some 100)
    (Obs.Request.root_cycles reqs ~trace_id:cx.Obs.Request.trace_id);
  match Obs.Request.tree reqs ~trace_id:cx.Obs.Request.trace_id with
  | [ seg ] ->
      Alcotest.(check bool) "root segment" true seg.Obs.Request.root;
      Alcotest.(check string) "machine label" "sim" seg.Obs.Request.machine;
      Alcotest.(check int) "both spans collected" 2
        (List.length seg.Obs.Request.spans)
  | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs)

let test_request_cross_machine_tree () =
  let obs_client = Obs.Emitter.create () in
  let obs_fleet = Obs.Emitter.create () in
  let reqs = Obs.Request.create () in
  Obs.Request.attach reqs ~machine:"client" obs_client;
  Obs.Request.attach reqs ~machine:"fleet" obs_fleet;
  let cx = Obs.Request.mint reqs in
  Obs.Emitter.emit obs_client Obs.Trace.Req_begin ~ts:100
    ~arg:(Obs.Request.pack cx ~root:true);
  Obs.Emitter.emit obs_client (Obs.Trace.span_begin Obs.Trace.Attest) ~ts:105 ~arg:0;
  Obs.Emitter.emit obs_client (Obs.Trace.span_end Obs.Trace.Attest) ~ts:140 ~arg:0;
  Obs.Emitter.emit obs_fleet Obs.Trace.Req_begin ~ts:150
    ~arg:(Obs.Request.pack cx ~root:false);
  Obs.Emitter.emit obs_fleet (Obs.Trace.span_begin Obs.Trace.Emc_gate) ~ts:200 ~arg:0;
  Obs.Emitter.emit obs_fleet (Obs.Trace.span_begin Obs.Trace.Svc_mmu) ~ts:210 ~arg:0;
  Obs.Emitter.emit obs_fleet (Obs.Trace.span_end Obs.Trace.Svc_mmu) ~ts:230 ~arg:0;
  Obs.Emitter.emit obs_fleet (Obs.Trace.span_end Obs.Trace.Emc_gate) ~ts:240 ~arg:0;
  Obs.Emitter.emit obs_fleet Obs.Trace.Req_end ~ts:350
    ~arg:(Obs.Request.pack cx ~root:false);
  Obs.Emitter.emit obs_client Obs.Trace.Req_end ~ts:400
    ~arg:(Obs.Request.pack cx ~root:true);
  let id = cx.Obs.Request.trace_id in
  Alcotest.(check (option int)) "end-to-end cycles" (Some 300)
    (Obs.Request.root_cycles reqs ~trace_id:id);
  (match Obs.Request.tree reqs ~trace_id:id with
  | [ root; leaf ] ->
      Alcotest.(check string) "root machine" "client" root.Obs.Request.machine;
      Alcotest.(check bool) "root first" true root.Obs.Request.root;
      Alcotest.(check string) "leaf machine" "fleet" leaf.Obs.Request.machine;
      Alcotest.(check int) "leaf window" 200
        (leaf.Obs.Request.seg_t1 - leaf.Obs.Request.seg_t0);
      (* Nesting preserved: gate > svc.mmu. *)
      (match leaf.Obs.Request.spans with
      | [ gate ] -> (
          Alcotest.(check bool) "gate phase" true
            (gate.Obs.Request.phase = Obs.Trace.Emc_gate);
          match gate.Obs.Request.children with
          | [ svc ] ->
              Alcotest.(check bool) "nested svc.mmu" true
                (svc.Obs.Request.phase = Obs.Trace.Svc_mmu);
              Alcotest.(check int) "svc duration" 20
                (svc.Obs.Request.t1 - svc.Obs.Request.t0)
          | ks -> Alcotest.failf "expected 1 child, got %d" (List.length ks))
      | sp -> Alcotest.failf "expected 1 fleet span, got %d" (List.length sp));
      (* The tree is causal: every segment fits inside the root window. *)
      Alcotest.(check bool) "leaf inside root" true
        (leaf.Obs.Request.seg_t0 >= root.Obs.Request.seg_t0
        && leaf.Obs.Request.seg_t1 <= root.Obs.Request.seg_t1)
  | segs -> Alcotest.failf "expected 2 segments, got %d" (List.length segs));
  (* Exports are well-formed JSON. *)
  let module J = Workloads.Bench_gate.Json in
  (match J.parse (Obs.Request.to_json reqs) with
  | Error e -> Alcotest.failf "to_json does not parse: %s" e
  | Ok _ -> ());
  match J.parse (Obs.Request.to_chrome_json reqs ~trace_id:id) with
  | Error e -> Alcotest.failf "to_chrome_json does not parse: %s" e
  | Ok _ -> ()

let test_request_sampling_and_latency () =
  let obs = Obs.Emitter.create () in
  let reqs = Obs.Request.create ~sample_every:2 () in
  Obs.Request.attach reqs ~machine:"m" obs;
  let durations = [ 100; 100; 100; 100 ] in
  let minted =
    List.mapi
      (fun i d ->
        let cx = Obs.Request.mint reqs in
        let t0 = 1000 * (i + 1) in
        Obs.Emitter.emit obs Obs.Trace.Req_begin ~ts:t0
          ~arg:(Obs.Request.pack cx ~root:true);
        Obs.Emitter.emit obs (Obs.Trace.span_begin Obs.Trace.Run) ~ts:t0 ~arg:0;
        Obs.Emitter.emit obs (Obs.Trace.span_end Obs.Trace.Run) ~ts:(t0 + d) ~arg:0;
        Obs.Emitter.emit obs Obs.Trace.Req_end ~ts:(t0 + d)
          ~arg:(Obs.Request.pack cx ~root:true);
        cx)
      durations
  in
  Alcotest.(check int) "half the mints sampled" 2
    (List.length (List.filter (fun cx -> cx.Obs.Request.sampled) minted));
  (* Every request completes and feeds the latency distribution... *)
  Alcotest.(check int) "all completed" 4 (Obs.Request.completed reqs);
  Alcotest.(check int) "all in the latency histogram" 4
    (Obs.Request.latency_count reqs);
  Alcotest.(check (float 0.001)) "mean latency" 100.0
    (Obs.Request.latency_mean reqs);
  Alcotest.(check int) "p100 clamps to max" 100
    (Obs.Request.latency_percentile reqs ~p:1.0);
  Alcotest.(check bool) "p50 within observed range" true
    (let p50 = Obs.Request.latency_percentile reqs ~p:0.5 in
     p50 > 0 && p50 <= 100);
  (* ...but only sampled traces kept their span trees. *)
  Alcotest.(check int) "sampled trees only" 2
    (List.length (Obs.Request.sampled_traces reqs));
  List.iter
    (fun cx ->
      let id = cx.Obs.Request.trace_id in
      let n_segs = List.length (Obs.Request.tree reqs ~trace_id:id) in
      if cx.Obs.Request.sampled then
        Alcotest.(check int) "sampled: segment kept" 1 n_segs
      else
        Alcotest.(check int) "unsampled: no segments" 0 n_segs)
    minted

(* Machine names land in Chrome span names; control characters must not
   break the JSON. *)
let test_request_chrome_escaping () =
  let obs = Obs.Emitter.create () in
  let reqs = Obs.Request.create () in
  Obs.Request.attach reqs ~machine:"cli\"ent\n\001" obs;
  let cx = Obs.Request.mint reqs in
  Obs.Emitter.emit obs Obs.Trace.Req_begin ~ts:10
    ~arg:(Obs.Request.pack cx ~root:true);
  Obs.Emitter.emit obs Obs.Trace.Req_end ~ts:20
    ~arg:(Obs.Request.pack cx ~root:true);
  let json = Obs.Request.to_chrome_json reqs ~trace_id:cx.Obs.Request.trace_id in
  Alcotest.(check bool) "quote escaped" true (contains ~sub:{|cli\"ent|} json);
  Alcotest.(check bool) "newline escaped" true (contains ~sub:{|\n|} json);
  Alcotest.(check bool) "control char escaped" true
    (contains ~sub:{|\u0001|} json);
  let module J = Workloads.Bench_gate.Json in
  match J.parse json with
  | Error e -> Alcotest.failf "escaped chrome JSON does not parse: %s" e
  | Ok _ -> ()

(* ------------------------------------------------------------------ *)
(* Trace-context propagation through the sealed channel                *)
(* ------------------------------------------------------------------ *)

let ctx_hw_key = Crypto.Sha256.digest_string "obs channel test hw key"

let ctx_kernel_image =
  {
    Hw.Image.entry = 0x1000;
    sections =
      [
        { Hw.Image.name = ".text"; vaddr = 0x1000; executable = true;
          writable = false;
          data = Hw.Isa.assemble [ Hw.Isa.Endbr; Hw.Isa.Ret ] };
      ];
  }

let make_channel_stack () =
  let mem = Hw.Phys_mem.create ~frames:16384 in
  let clock = Hw.Cycles.clock () in
  let obs = Obs.Emitter.create () in
  let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:200_000 ~obs () in
  let td = Tdx.Td_module.create ~mem ~clock ~hw_key:ctx_hw_key in
  let host = Vmm.Host.create () in
  Tdx.Td_module.set_vmm td (Vmm.Host.handler host);
  let monitor =
    Erebor.Monitor.install ~cpu ~mem ~td ~firmware:(Bytes.of_string "OVMF")
      ~monitor_frames:32 ~device_shared_frames:32 ()
  in
  (match
     Erebor.Monitor.boot_kernel monitor ~kernel_image:ctx_kernel_image
       ~reserved_frames:128 ~cma_frames:4096
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  (monitor, obs)

let test_channel_ctx_header () =
  let cx = { Obs.Request.trace_id = 0xbeef; span_id = 42; sampled = true } in
  let payload = Bytes.of_string "private payload" in
  let framed = Erebor.Channel.encode_ctx cx payload in
  Alcotest.(check int) "header length"
    (Erebor.Channel.ctx_header_len + Bytes.length payload)
    (Bytes.length framed);
  (match Erebor.Channel.decode_ctx framed with
  | Some (cx', rest) ->
      Alcotest.(check int) "trace id" 0xbeef cx'.Obs.Request.trace_id;
      Alcotest.(check int) "span id" 42 cx'.Obs.Request.span_id;
      Alcotest.(check bool) "sampled" true cx'.Obs.Request.sampled;
      Alcotest.(check bytes) "payload intact" payload rest
  | None -> Alcotest.fail "framed header did not decode");
  (* A payload without the magic passes through undecoded. *)
  Alcotest.(check bool) "no header -> None" true
    (Erebor.Channel.decode_ctx payload = None)

let test_channel_ctx_propagation () =
  let monitor, obs = make_channel_stack () in
  let counter = Obs.Counter.attach obs (Obs.Counter.create ()) in
  let reqs = Obs.Request.create () in
  Obs.Request.attach reqs ~machine:"monitor" obs;
  let rng_c = Crypto.Drbg.create ~seed:"ctx client" in
  let rng_s = Crypto.Drbg.create ~seed:"ctx server" in
  let expected =
    (Erebor.Monitor.tdreport monitor ~report_data:Bytes.empty).Tdx.Attest.mrtd
  in
  let client =
    Erebor.Channel.Client.create ~rng:rng_c ~hw_key:ctx_hw_key
      ~expected_mrtd:expected
  in
  let hello = Erebor.Channel.Client.hello client in
  let server, server_hello =
    Result.get_ok
      (Erebor.Channel.Server.accept ~monitor ~rng:rng_s ~client_hello:hello)
  in
  Result.get_ok (Erebor.Channel.Client.finish client ~server_hello);
  let cx = Obs.Request.mint reqs in
  let secret = Bytes.of_string "the plaintext the monitor must see" in
  let sealed = Erebor.Channel.Client.seal_request ~ctx:cx client secret in
  let plaintext = Result.get_ok (Erebor.Channel.Server.open_request server sealed) in
  (* The header is stripped before the plaintext reaches the monitor. *)
  Alcotest.(check bytes) "header stripped" secret plaintext;
  (match Erebor.Channel.Server.last_ctx server with
  | Some cx' ->
      Alcotest.(check int) "ctx survives the seal" cx.Obs.Request.trace_id
        cx'.Obs.Request.trace_id
  | None -> Alcotest.fail "server did not decode the trace context");
  Alcotest.(check int) "server emitted Req_begin" 1
    (Obs.Counter.count counter Obs.Trace.Req_begin);
  let response =
    Erebor.Channel.Server.seal_response server ~bucket:256 (Bytes.of_string "ok")
  in
  Alcotest.(check int) "server emitted Req_end" 1
    (Obs.Counter.count counter Obs.Trace.Req_end);
  Alcotest.(check bool) "ctx cleared after response" true
    (Erebor.Channel.Server.last_ctx server = None);
  Alcotest.(check bytes) "response opens" (Bytes.of_string "ok")
    (Result.get_ok (Erebor.Channel.Client.open_response client response));
  (* Without ?ctx nothing changes on the wire path: no markers, payload
     returned as sealed. *)
  let sealed2 = Erebor.Channel.Client.seal_request client secret in
  let plaintext2 =
    Result.get_ok (Erebor.Channel.Server.open_request server sealed2)
  in
  Alcotest.(check bytes) "no-ctx passthrough" secret plaintext2;
  Alcotest.(check int) "no extra Req_begin" 1
    (Obs.Counter.count counter Obs.Trace.Req_begin)

(* Under Erebor_full, the machine mints a context per session and the
   collector assembles the tree; the root segment accounts for the whole
   client-observed window. *)
let test_machine_request_tree () =
  let m =
    Sim.Machine.create ~frames:32768 ~cma_frames:4096
      ~collect_request_spans:true ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  let reqs = Sim.Machine.requests m in
  Alcotest.(check int) "one request per session" 1 (Obs.Request.completed reqs);
  match Obs.Request.sampled_traces reqs with
  | [ id ] -> (
      match Obs.Request.tree reqs ~trace_id:id with
      | root :: _ ->
          Alcotest.(check bool) "root segment collected" true
            root.Obs.Request.root;
          Alcotest.(check bool) "spans inside the window" true
            (root.Obs.Request.spans <> []);
          Alcotest.(check (option int)) "root cycles = window"
            (Some (root.Obs.Request.seg_t1 - root.Obs.Request.seg_t0))
            (Obs.Request.root_cycles reqs ~trace_id:id)
      | [] -> Alcotest.fail "no segments collected")
  | ids -> Alcotest.failf "expected 1 sampled trace, got %d" (List.length ids)

(* ------------------------------------------------------------------ *)
(* Abnormal-exit flushing: exports stay well-formed after a raise      *)
(* ------------------------------------------------------------------ *)

let test_finalize_on_abnormal_exit () =
  let obs = Obs.Emitter.create () in
  let rec_ = Obs.Chrome.attach obs (Obs.Chrome.create ()) in
  let attrib = Obs.Attrib.attach obs (Obs.Attrib.create ()) in
  Obs.Emitter.add_finalizer obs (fun ~now -> Obs.Attrib.close attrib ~now);
  let chain = Obs.Audit.create ~key:audit_test_key in
  Obs.Emitter.set_audit obs (Some chain);
  let m =
    Sim.Machine.create ~frames:32768 ~cma_frames:4096 ~obs
      ~setting:Sim.Config.Erebor_full ()
  in
  let boom (_ : Sim.Machine.ops) = raise Exit in
  (match Sim.Machine.run m (small_spec ~body:boom ()) with
  | _ -> Alcotest.fail "expected the body to raise"
  | exception Exit -> ());
  (* The exception handler path: flush everything exactly once. *)
  let now = Hw.Cycles.now (Sim.Machine.clock m) in
  Obs.Emitter.finalize obs ~now;
  Obs.Emitter.finalize obs ~now (* idempotent *);
  Alcotest.(check bool) "emitter finalized" true (Obs.Emitter.finalized obs);
  (* Chrome export balanced despite the mid-run raise. *)
  let json = Obs.Chrome.to_chrome_json rec_ in
  Alcotest.(check int) "every B closed" (count_sub ~sub:{|"ph":"B"|} json)
    (count_sub ~sub:{|"ph":"E"|} json);
  let module J = Workloads.Bench_gate.Json in
  (match J.parse json with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok _ -> ());
  (* Attribution closed by the registered finalizer: conservation holds. *)
  Alcotest.(check int) "attrib closed" 0 (Obs.Attrib.open_depth attrib);
  Alcotest.(check int) "attrib covers the aborted run" now
    (Obs.Attrib.total attrib);
  (* The audit chain was finalized, so it verifies offline. *)
  Alcotest.(check bool) "chain finalized" true (Obs.Audit.finalized chain);
  match Obs.Audit.verify_string ~key:audit_test_key (Obs.Audit.to_string chain) with
  | Ok n -> Alcotest.(check bool) "decisions recorded before the raise" true (n > 0)
  | Error e -> Alcotest.failf "aborted run's chain rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Kept sink set end to end: clock identity, calibration anchors      *)
(* ------------------------------------------------------------------ *)

(* Attaching the whole kept sink set (attribution, Chrome, sketch family,
   ring, journal, request tracking) must not move the clock: a rich synthetic
   body and the drugbank Fig. 9 program under full Erebor run cycle- and
   statistics-identical to bare runs of the same spec. *)
let test_live_sinks_clock_free () =
  let run ?frames ?cma_frames ~observed spec =
    let path = journal_path "sinks-free" in
    let obs =
      if not observed then None
      else begin
        let obs = Obs.Emitter.create () in
        attach_kept_sinks
          ~journal:(Obs.Journal.Writer.create ~path ())
          ~requests:(Obs.Request.create ()) obs;
        Some obs
      end
    in
    let m =
      Sim.Machine.create ?frames ?cma_frames ?obs
        ~setting:Sim.Config.Erebor_full ()
    in
    let r = Sim.Machine.run m spec in
    let clock = Hw.Cycles.now (Sim.Machine.clock m) in
    Option.iter (fun obs -> Obs.Emitter.finalize obs ~now:clock) obs;
    rm_journal path;
    (r, clock, Sim.Machine.snapshot m)
  in
  let rich observed =
    let _, clock, _ =
      run ~frames:32768 ~cma_frames:4096 ~observed
        (small_spec ~body:rich_body ())
    in
    clock
  in
  Alcotest.(check int) "live sinks never advance the clock" (rich false)
    (rich true);
  let drugbank = List.assoc "drugbank" Workloads.Eval.all_programs in
  let r0, c0, s0 = run ~observed:false (drugbank ()) in
  let r1, c1, s1 = run ~observed:true (drugbank ()) in
  Alcotest.(check int) "fig9 drugbank: init cycles" r0.Sim.Machine.init_cycles
    r1.Sim.Machine.init_cycles;
  Alcotest.(check int) "fig9 drugbank: run cycles" r0.Sim.Machine.run_cycles
    r1.Sim.Machine.run_cycles;
  Alcotest.(check int) "fig9 drugbank: clock" c0 c1;
  Alcotest.(check bool) "fig9 drugbank: snapshot identical" true (s0 = s1)

(* The regression-gate anchors (Tables 3/4) must render byte-identically
   whether or not the kept sink set is attached to the bench machines. *)
let test_anchors_identical_under_telemetry () =
  let base = Workloads.Bench_gate.render_anchors () in
  let path = journal_path "anchors" in
  let journal = Obs.Journal.Writer.create ~path () in
  let requests = Obs.Request.create () in
  let instrumented =
    Workloads.Bench_gate.render_anchors
      ~instrument:(attach_kept_sinks ~journal ~requests)
      ()
  in
  Obs.Journal.Writer.close journal ~now:0;
  rm_journal path;
  Alcotest.(check bool) "bench machines were journaled" true
    (Obs.Journal.Writer.events journal > 0);
  Alcotest.(check string) "anchors byte-identical under telemetry" base
    instrumented

(* ------------------------------------------------------------------ *)
(* Journal: flight-recorder round trips, corruption, offline engines   *)
(* ------------------------------------------------------------------ *)


(* Write a two-machine event list [(stream01, kind, ts, arg); ...] and
   finalize; returns nothing (read it back through the public reader). *)
let write_journal ?(segment_bytes = 512) ?(meta = []) ~path evs =
  let w = Obs.Journal.Writer.create ~segment_bytes ~meta ~path () in
  let s0 = Obs.Journal.Writer.stream w ~machine:"alpha" in
  let s1 = Obs.Journal.Writer.stream w ~machine:"beta" in
  let last = ref 0 in
  List.iter
    (fun (st, kind, ts, arg) ->
      Obs.Journal.Writer.record w
        ~stream:(if st = 0 then s0 else s1)
        kind ~ts ~arg;
      if ts > !last then last := ts)
    evs;
  Obs.Journal.Writer.close w ~now:!last

let read_journal ?strict path =
  match Obs.Journal.read ?strict ~path () with
  | Ok (evs, info) -> (evs, info)
  | Error e -> Alcotest.failf "journal read: %s" e

(* Random event streams survive the delta/varint codec bit for bit:
   arbitrary kinds, non-monotone timestamps (negative deltas stress the
   zigzag path), full-range arguments, interleaved streams, and a segment
   size small enough that every run seals several segments. *)
let prop_journal_roundtrip =
  QCheck.Test.make ~name:"journal roundtrip = identity" ~count:60
    QCheck.(
      list_of_size
        Gen.(0 -- 400)
        (quad (int_bound 1) (int_bound (Obs.Trace.n_kinds - 1))
           (int_range (-50) 5_000) QCheck.int))
    (fun raw ->
      let path = journal_path "prop" in
      let _, evs =
        List.fold_left
          (fun (ts, acc) (st, ki, dts, arg) ->
            let ts = Stdlib.max 0 (ts + dts) in
            (ts, (st, Obs.Trace.kind_of_index ki, ts, arg) :: acc))
          (0, []) raw
      in
      let evs = List.rev evs in
      write_journal ~path evs;
      let got, info = read_journal path in
      rm_journal path;
      info.Obs.Journal.complete
      && info.Obs.Journal.events = List.length evs
      && List.length got = List.length evs
      && List.for_all2
           (fun (st, k, ts, arg) (e : Obs.Journal.event) ->
             e.Obs.Journal.stream = st
             && e.Obs.Journal.kind = k
             && e.Obs.Journal.ts = ts
             && e.Obs.Journal.arg = arg)
           evs got)

let sample_events n =
  List.init n (fun i ->
      (i mod 2, Obs.Trace.Page_fault, i * 10, (i land 7) * 4096))

let expect_journal_error name path ~msg_frag =
  match Obs.Journal.read ~path () with
  | Ok _ -> Alcotest.failf "%s: corruption accepted" name
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names the cause (%S in %S)" name msg_frag e)
        true
        (contains ~sub:msg_frag e)

let test_journal_corruption_rejected () =
  let path = journal_path "corrupt" in
  write_journal ~path (sample_events 300);
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let write_raw s =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
  in
  (* Bit-flip inside the last frame's payload: CRC mismatch, named frame. *)
  let flipped = Bytes.of_string raw in
  let k = Bytes.length flipped - 1 in
  Bytes.set flipped k (Char.chr (Char.code (Bytes.get flipped k) lxor 1));
  write_raw (Bytes.to_string flipped);
  expect_journal_error "bit flip" path ~msg_frag:"CRC mismatch";
  expect_journal_error "bit flip frame id" path ~msg_frag:"frame";
  (* Trailing data after the END frame is never silently ignored: a whole
     duplicated frame is "data after END", junk bytes are an unknown tag.
     Find the last frame by walking the header chain (magic is 6 bytes,
     each frame is 12 header bytes + a LE u32 payload length). *)
  let last_frame =
    let u32 off =
      Char.code raw.[off]
      lor (Char.code raw.[off + 1] lsl 8)
      lor (Char.code raw.[off + 2] lsl 16)
      lor (Char.code raw.[off + 3] lsl 24)
    in
    let rec walk off =
      let next = off + 12 + u32 (off + 4) in
      if next >= String.length raw then off else walk next
    in
    walk 6
  in
  write_raw (raw ^ String.sub raw last_frame (String.length raw - last_frame));
  expect_journal_error "data after END" path ~msg_frag:"data after END";
  write_raw (raw ^ "XXXXXXXXXXXX");
  expect_journal_error "junk after END" path ~msg_frag:"unknown tag";
  (* A clobbered magic fails before any decoding. *)
  write_raw ("X" ^ String.sub raw 1 (String.length raw - 1));
  expect_journal_error "bad magic" path ~msg_frag:"bad magic";
  (* A tail cut mid-frame is tolerated by default (sealed segments remain
     readable, [complete = false]) and a precise error under [~strict]. *)
  write_raw (String.sub raw 0 (String.length raw - 3));
  let evs, info = read_journal path in
  Alcotest.(check bool) "truncated tail: not finalized" false
    info.Obs.Journal.complete;
  Alcotest.(check int) "truncated tail: sealed events intact" 300
    (List.length evs);
  (match Obs.Journal.read ~strict:true ~path () with
  | Ok _ -> Alcotest.fail "strict read accepted a truncated file"
  | Error e ->
      Alcotest.(check bool) "strict truncation error" true
        (contains ~sub:"mid-frame" e || contains ~sub:"mid-header" e
        || contains ~sub:"never finalized" e));
  rm_journal path

let test_journal_kill_mid_run () =
  let path = journal_path "killed" in
  let w = Obs.Journal.Writer.create ~segment_bytes:512 ~path () in
  let s = Obs.Journal.Writer.stream w ~machine:"sim" in
  let evs = sample_events 2000 in
  List.iter
    (fun (_, kind, ts, arg) -> Obs.Journal.Writer.record w ~stream:s kind ~ts ~arg)
    evs;
  (* No close: the process "died". Sealed segments were flushed frame by
     frame, so the file is readable up to the last seal. *)
  Alcotest.(check bool) "several segments sealed" true
    (Obs.Journal.Writer.segments w > 2);
  let got, info = read_journal path in
  Alcotest.(check bool) "not finalized" false info.Obs.Journal.complete;
  Alcotest.(check int) "sealed segments readable" info.Obs.Journal.segments
    (Obs.Journal.Writer.segments w);
  Alcotest.(check bool) "a true prefix survives" true
    (List.length got > 0 && List.length got < 2000);
  List.iteri
    (fun i (e : Obs.Journal.event) ->
      let _, k, ts, arg = List.nth evs i in
      Alcotest.(check bool) "prefix event intact" true
        (e.Obs.Journal.kind = k && e.Obs.Journal.ts = ts
        && e.Obs.Journal.arg = arg))
    got;
  Obs.Journal.Writer.close w ~now:0;
  rm_journal path

(* The journal is a complete, faithful recording: a snapshot rebuilt purely
   from replaying it equals the machine's live counter-derived snapshot. *)
let test_journal_snapshot_replay () =
  let path = journal_path "snapshot" in
  let obs = Obs.Emitter.create () in
  let w = Obs.Journal.Writer.create ~path () in
  Obs.Journal.Writer.attach ~machine:"sim" w obs;
  let m =
    Sim.Machine.create ~obs ~frames:32768 ~cma_frames:4096
      ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  let snap = Sim.Machine.snapshot m in
  let now = Hw.Cycles.now (Sim.Machine.clock m) in
  Obs.Emitter.finalize obs ~now;
  let robs = Obs.Emitter.create () in
  let rc = Obs.Counter.attach robs (Obs.Counter.create ()) in
  let info =
    match
      Obs.Journal.fold ~path ~init:() (fun () (e : Obs.Journal.event) ->
          Obs.Emitter.emit robs e.Obs.Journal.kind ~ts:e.Obs.Journal.ts
            ~arg:e.Obs.Journal.arg)
    with
    | Ok ((), info) -> info
    | Error e -> Alcotest.failf "replay: %s" e
  in
  Alcotest.(check bool) "finalized by emitter finalizer" true
    info.Obs.Journal.complete;
  Alcotest.(check int) "final timestamp = machine clock" now
    info.Obs.Journal.last_ts;
  let c k = Obs.Counter.count rc k in
  List.iter
    (fun (label, k, expected) -> Alcotest.(check int) label expected (c k))
    [
      ("page faults", Obs.Trace.Page_fault, snap.Sim.Stats.page_faults);
      ("timer irqs", Obs.Trace.Timer_irq, snap.Sim.Stats.timer_irqs);
      ("ve exits", Obs.Trace.Ve_exit, snap.Sim.Stats.ve_exits);
      ("syscalls", Obs.Trace.Syscall, snap.Sim.Stats.syscalls);
      ("emc total", Obs.Trace.Emc_entry, snap.Sim.Stats.emc_total);
      ("emc mmu", Obs.Trace.emc_mmu, snap.Sim.Stats.emc_mmu);
      ("emc cr", Obs.Trace.emc_cr, snap.Sim.Stats.emc_cr);
      ("emc msr", Obs.Trace.emc_msr, snap.Sim.Stats.emc_msr);
      ("emc idt", Obs.Trace.emc_idt, snap.Sim.Stats.emc_idt);
      ("emc smap", Obs.Trace.emc_smap, snap.Sim.Stats.emc_smap);
      ("emc ghci", Obs.Trace.emc_ghci, snap.Sim.Stats.emc_ghci);
      ("ctx switches", Obs.Trace.Context_switch, snap.Sim.Stats.context_switches);
      ("denies", Obs.Trace.Mmu_deny, snap.Sim.Stats.mmu_denies);
    ];
  rm_journal path

(* A small hand-built single-stream scenario shared by the three offline
   engines: boot span, then one request whose window covers a Run span
   with a nested page-fault handler, closing 20 cycles after Run ends.

     boot [0,100]   req [100,220]   run [100,200]   pf [150,170]  *)
let scenario_a =
  let req_arg = (7 lsl 2) lor (1 lsl 1) lor 1 in
  [
    (0, Obs.Trace.span_begin Obs.Trace.Boot, 0, 0);
    (0, Obs.Trace.span_end Obs.Trace.Boot, 100, 0);
    (0, Obs.Trace.Req_begin, 100, req_arg);
    (0, Obs.Trace.span_begin Obs.Trace.Run, 100, 0);
    (0, Obs.Trace.Page_fault, 150, 4096);
    (0, Obs.Trace.span_begin Obs.Trace.Pf_handler, 150, 0);
    (0, Obs.Trace.span_end Obs.Trace.Pf_handler, 170, 0);
    (0, Obs.Trace.Page_fault, 180, 12288);
    (0, Obs.Trace.span_end Obs.Trace.Run, 200, 0);
    (0, Obs.Trace.Req_end, 220, req_arg);
  ]

let test_journal_query () =
  let path = journal_path "query" in
  write_journal ~path scenario_a;
  (* By_kind: page faults aggregate count / arg-sum / extrema. *)
  (match Obs.Query.run ~path () with
  | Error e -> Alcotest.failf "query: %s" e
  | Ok (rows, _) -> (
      match
        List.find_opt
          (fun (r : Obs.Query.row) -> r.Obs.Query.label = "page_fault")
          rows
      with
      | None -> Alcotest.fail "no page_fault row"
      | Some r ->
          Alcotest.(check int) "pf count" 2 r.Obs.Query.count;
          Alcotest.(check int) "pf arg sum" 16384 r.Obs.Query.sum;
          Alcotest.(check int) "pf min" 4096 r.Obs.Query.min;
          Alcotest.(check int) "pf max" 12288 r.Obs.Query.max));
  (* Kind + time-range filter composes. *)
  (match
     Obs.Query.run
       ~filter:
         {
           Obs.Query.no_filter with
           Obs.Query.kinds = [ Obs.Trace.Page_fault ];
           t0 = Some 160;
         }
       ~path ()
   with
  | Error e -> Alcotest.failf "filtered query: %s" e
  | Ok (rows, _) ->
      Alcotest.(check int) "one row" 1 (List.length rows);
      let r = List.hd rows in
      Alcotest.(check int) "one late fault" 1 r.Obs.Query.count;
      Alcotest.(check int) "its arg" 12288 r.Obs.Query.sum);
  (* By_phase: inclusive span durations per phase. *)
  (match Obs.Query.run ~group:Obs.Query.By_phase ~path () with
  | Error e -> Alcotest.failf "phase query: %s" e
  | Ok (rows, _) ->
      Alcotest.(check int) "three phases" 3 (List.length rows);
      let sums =
        List.map (fun (r : Obs.Query.row) -> r.Obs.Query.sum) rows
        |> List.sort Stdlib.compare
      in
      Alcotest.(check (list int)) "boot/run inclusive, pf nested" [ 20; 100; 100 ]
        sums);
  rm_journal path

let test_journal_critical () =
  let path = journal_path "critical" in
  write_journal ~path scenario_a;
  (match Obs.Critical.analyze ~path () with
  | Error e -> Alcotest.failf "critical: %s" e
  | Ok (rep, _) ->
      Alcotest.(check int) "one request" 1 rep.Obs.Critical.n;
      let r = List.hd rep.Obs.Critical.requests in
      Alcotest.(check int) "trace id" 7 r.Obs.Critical.trace_id;
      Alcotest.(check bool) "root" true r.Obs.Critical.root;
      Alcotest.(check int) "total latency" 120 r.Obs.Critical.total;
      Alcotest.(check int) "service = run overlap" 100 r.Obs.Critical.service;
      Alcotest.(check int) "queueing = remainder" 20 r.Obs.Critical.queueing;
      (match r.Obs.Critical.path with
      | [ a; b ] ->
          Alcotest.(check bool) "dominant blame user:run 80" true
            (a.Obs.Critical.bphase = Obs.Trace.Run
            && a.Obs.Critical.bdomain = Obs.Trace.User
            && a.Obs.Critical.bcycles = 80);
          Alcotest.(check bool) "nested blame kernel:pf 20" true
            (b.Obs.Critical.bphase = Obs.Trace.Pf_handler
            && b.Obs.Critical.bdomain = Obs.Trace.Kernel
            && b.Obs.Critical.bcycles = 20)
      | p -> Alcotest.failf "expected 2 blame entries, got %d" (List.length p)));
  rm_journal path

let test_journal_diff () =
  let path_a = journal_path "diff-a" in
  let path_b = journal_path "diff-b" in
  write_journal ~path:path_a scenario_a;
  (* Self-diff is exactly silent. *)
  (match Obs.Diff.compare_files ~a:path_a ~b:path_a with
  | Error e -> Alcotest.failf "self diff: %s" e
  | Ok d ->
      Alcotest.(check bool) "all deltas zero" true
        (List.for_all
           (fun (e : Obs.Diff.entry) -> e.Obs.Diff.delta = 0)
           d.Obs.Diff.entries);
      Alcotest.(check int) "no regressions"
        0
        (List.length (Obs.Diff.regressions ~min_cycles:0 d)));
  (* Run B: the Run span stretches 100 extra user cycles — flagged. *)
  let scenario_b =
    List.map
      (fun (st, k, ts, arg) ->
        match k with
        | Obs.Trace.Span_end Obs.Trace.Run -> (st, k, 300, arg)
        | Obs.Trace.Req_end -> (st, k, 320, arg)
        | _ -> (st, k, ts, arg))
      scenario_a
  in
  write_journal ~path:path_b scenario_b;
  (match Obs.Diff.compare_files ~a:path_a ~b:path_b with
  | Error e -> Alcotest.failf "seeded diff: %s" e
  | Ok d ->
      let regs = Obs.Diff.regressions ~threshold:5.0 ~min_cycles:10 d in
      Alcotest.(check bool) "user/run regression flagged" true
        (List.exists
           (fun (e : Obs.Diff.entry) ->
             e.Obs.Diff.ephase = Obs.Trace.Run
             && e.Obs.Diff.edomain = Obs.Trace.User
             && e.Obs.Diff.delta = 100)
           regs));
  rm_journal path_a;
  rm_journal path_b

(* ------------------------------------------------------------------ *)
(* Quantile sketches: accuracy, edges, merge laws; the shared codec    *)
(* ------------------------------------------------------------------ *)

(* The exact order statistic [quantile] targets: rank ceil(p * n),
   1-based, over the sorted stream. *)
let oracle_quantile sorted ~p =
  let n = Array.length sorted in
  let idx = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (idx - 1)))

let sketch_of ?alpha ?capacity vs =
  let s = Obs.Sketch.create ?alpha ?capacity () in
  List.iter (Obs.Sketch.record s) vs;
  s

let check_sketch_accuracy name values =
  let sk = sketch_of values in
  let sorted = Array.of_list (List.sort compare values) in
  List.iter
    (fun p ->
      let est = Obs.Sketch.quantile sk ~p in
      let exact = oracle_quantile sorted ~p in
      let bound =
        (Obs.Sketch.alpha sk *. float_of_int (abs exact)) +. 1.0
      in
      if float_of_int (abs (est - exact)) > bound then
        Alcotest.failf "%s: p=%.3f est %d vs exact %d (bound %.1f)" name p est
          exact bound)
    [ 0.01; 0.25; 0.50; 0.90; 0.95; 0.99; 0.999 ]

(* Deterministic LCG so the adversarial streams are reproducible. *)
let lcg seed =
  let s = ref seed in
  fun m ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod m

let test_sketch_accuracy_adversarial () =
  check_sketch_accuracy "constant" (List.init 1000 (fun _ -> 777));
  check_sketch_accuracy "single-sample" [ 42 ];
  check_sketch_accuracy "two-sample" [ 5; 5_000_000 ];
  check_sketch_accuracy "bimodal"
    (List.init 1000 (fun i -> if i mod 2 = 0 then 10 else 1_000_000));
  check_sketch_accuracy "uniform" (List.init 2048 (fun i -> i + 1));
  check_sketch_accuracy "zeros+positive"
    (List.init 600 (fun i -> if i mod 4 = 0 then 0 else i));
  let rand = lcg 987654321 in
  check_sketch_accuracy "heavy-tailed"
    (List.init 2000 (fun _ ->
         let e = rand 9 in
         let base = int_of_float (10.0 ** float_of_int e) in
         base + rand (max 1 base)))

(* Quantile edges are exact: an empty sketch is 0 everywhere, [p] is
   clamped, [p <= 0] / [p >= 1] are the observed min / max, a single
   sample answers every [p]; values below 1 / (2 alpha) have a bucket
   each, so a small-valued stream matches the sort oracle exactly. *)
let test_sketch_edges () =
  let ps = [ -1.0; 0.0; 0.25; 0.5; 0.95; 0.99; 1.0; 2.0 ] in
  let expect name vs want =
    let sk = sketch_of vs in
    List.iter
      (fun p ->
        Alcotest.(check int)
          (Printf.sprintf "%s p=%.2f" name p)
          (want p) (Obs.Sketch.quantile sk ~p))
      ps
  in
  expect "empty" [] (fun _ -> 0);
  Alcotest.(check int) "empty min" 0 (Obs.Sketch.min_value (sketch_of []));
  expect "single sample" [ 9 ] (fun _ -> 9);
  expect "constant" [ 7; 7; 7 ] (fun _ -> 7);
  let multi = [ 1; 1; 2; 3; 4; 100 ] in
  let sorted = Array.of_list multi in
  expect "small values" multi (fun p ->
      oracle_quantile sorted ~p:(Float.min 1.0 (Float.max 0.0 p)))

(* Request latency and journal-query rows come from sketches: p50/p95/p99
   stay within alpha (+1) of the exact sort oracle on a heavy-tailed
   stream, while count, sum, min and max are exact. *)
let test_request_query_vs_oracle () =
  let rand = lcg 31415 in
  let values =
    List.init 3000 (fun _ ->
        let base = int_of_float (10.0 ** float_of_int (1 + rand 6)) in
        base + rand base)
  in
  let sorted = Array.of_list (List.sort compare values) in
  let within name est p =
    let exact = oracle_quantile sorted ~p in
    let bound = (Obs.Sketch.default_alpha *. float_of_int exact) +. 1.0 in
    if float_of_int (abs (est - exact)) > bound then
      Alcotest.failf "%s p=%.2f: est %d vs exact %d (bound %.1f)" name p est
        exact bound
  in
  let obs = Obs.Emitter.create () in
  let reqs = Obs.Request.create () in
  Obs.Request.attach reqs ~machine:"m" obs;
  List.iteri
    (fun i d ->
      let arg = Obs.Request.pack (Obs.Request.mint reqs) ~root:true in
      let t0 = i * 100_000_000 in
      Obs.Emitter.emit obs Obs.Trace.Req_begin ~ts:t0 ~arg;
      Obs.Emitter.emit obs Obs.Trace.Req_end ~ts:(t0 + d) ~arg)
    values;
  Alcotest.(check int) "request count" 3000 (Obs.Request.latency_count reqs);
  List.iter
    (fun p -> within "request" (Obs.Request.latency_percentile reqs ~p) p)
    [ 0.50; 0.95; 0.99 ];
  let path = journal_path "query-oracle" in
  write_journal ~path
    (List.mapi (fun i v -> (i land 1, Obs.Trace.Emc_entry, i, v)) values);
  (match Obs.Query.run ~path () with
  | Error e -> Alcotest.failf "query: %s" e
  | Ok ([ r ], _) ->
      Alcotest.(check int) "query count" 3000 r.Obs.Query.count;
      Alcotest.(check int) "query sum" (List.fold_left ( + ) 0 values)
        r.Obs.Query.sum;
      Alcotest.(check int) "query min" sorted.(0) r.Obs.Query.min;
      Alcotest.(check int) "query max" sorted.(2999) r.Obs.Query.max;
      within "query" r.Obs.Query.p50 0.50;
      within "query" r.Obs.Query.p95 0.95;
      within "query" r.Obs.Query.p99 0.99
  | Ok (rows, _) -> Alcotest.failf "expected one row, got %d" (List.length rows));
  rm_journal path

(* The one varint codec: known-answer bytes pin the pre-existing ESK1 /
   EJRN1 encoding, and values whose zigzag is negative (|v| >= 2^61,
   min_int) now serialize instead of raising. *)
let test_wire_extremes () =
  let enc f v =
    let b = Buffer.create 10 in
    f b v;
    Buffer.contents b
  in
  Alcotest.(check string) "uvarint 300" "\xac\x02" (enc Obs.Wire.add_uvarint 300);
  Alcotest.(check string) "svarint -1" "\x01" (enc Obs.Wire.add_svarint (-1));
  Alcotest.(check string) "svarint 64" "\x80\x01" (enc Obs.Wire.add_svarint 64);
  Alcotest.(check string) "uvarint -1 is nine bytes"
    (String.make 8 '\xff' ^ "\x7f")
    (enc Obs.Wire.add_uvarint (-1));
  List.iter
    (fun vs ->
      let blob = Obs.Sketch.serialize (sketch_of vs) in
      match Obs.Sketch.deserialize blob with
      | Error e -> Alcotest.failf "sketch round trip: %s" e
      | Ok sk ->
          Alcotest.(check string) "ESK1 re-serializes" blob
            (Obs.Sketch.serialize sk);
          Alcotest.(check int) "min survives" (List.fold_left min max_int vs)
            (Obs.Sketch.min_value sk);
          Alcotest.(check int) "max survives" (List.fold_left max min_int vs)
            (Obs.Sketch.max_value sk))
    [ [ 1 lsl 61 ]; [ min_int ]; [ max_int; min_int; 5 ] ];
  (* Nine-byte varints decode to negative ints: a negative capacity or
     string length is malformed input, reported as [Error], not raised. *)
  let hostile magic fields =
    let b = Buffer.create 32 in
    Buffer.add_string b magic;
    List.iter (Obs.Wire.add_uvarint b) fields;
    Buffer.contents b
  in
  let esk1 =
    let b = Buffer.create 16 in
    Buffer.add_string b "ESK1";
    Buffer.add_int64_be b (Int64.bits_of_float Obs.Sketch.default_alpha);
    Buffer.contents b
  in
  Alcotest.(check bool) "negative sketch capacity rejected" true
    (Result.is_error (Obs.Sketch.deserialize (hostile esk1 [ -1 ])));
  let path = journal_path "extremes" in
  let evs =
    [
      (0, Obs.Trace.Emc_entry, max_int, min_int);
      (1, Obs.Trace.Emc_entry, 0, max_int);
      (0, Obs.Trace.Syscall, 1 lsl 61, -(1 lsl 61));
    ]
  in
  write_journal ~path evs;
  let got, _ = read_journal path in
  rm_journal path;
  Alcotest.(check (list (pair int int))) "EJRN1 extremes round-trip"
    (List.map (fun (_, _, ts, arg) -> (ts, arg)) evs)
    (List.map (fun (e : Obs.Journal.event) -> (e.Obs.Journal.ts, e.Obs.Journal.arg)) got)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire varints round-trip every int" ~count:200
    QCheck.(list_of_size Gen.(0 -- 40) int)
    (fun l ->
      let vs = min_int :: max_int :: 0 :: -1 :: (1 lsl 61) :: -(1 lsl 61) :: l in
      let buf = Buffer.create 256 in
      List.iter
        (fun v ->
          Obs.Wire.add_uvarint buf v;
          Obs.Wire.add_svarint buf v)
        vs;
      let s = Buffer.contents buf in
      let b = Bytes.create (String.length s) in
      let n =
        List.fold_left
          (fun p v -> Obs.Wire.put_svarint b (Obs.Wire.put_uvarint b p v) v)
          0 vs
      in
      let pos = ref 0 in
      n = String.length s
      && Bytes.to_string b = s
      && List.for_all
           (fun v -> Obs.Wire.uvarint s pos = v && Obs.Wire.svarint s pos = v)
           vs
      && !pos = String.length s)

let test_sketch_collapse_and_edges () =
  (* Collapse-lowest: a tiny capacity keeps the tail accurate while the
     collapsed low end stays within [min, max]. *)
  let sk = Obs.Sketch.create ~capacity:8 () in
  List.iter (Obs.Sketch.record sk) (List.init 1000 (fun i -> i + 1));
  Alcotest.(check bool) "collapse engaged" true (Obs.Sketch.bucket_floor sk > 0);
  let p99 = Obs.Sketch.quantile sk ~p:0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "tail accuracy survives collapse (p99=%d)" p99)
    true
    (abs (p99 - 990) <= 11);
  let p01 = Obs.Sketch.quantile sk ~p:0.01 in
  Alcotest.(check bool) "collapsed head stays in [min,max]" true
    (p01 >= 1 && p01 <= 1000);
  (* Same multiset through a different record order: byte-identical. *)
  let sk2 = Obs.Sketch.create ~capacity:8 () in
  List.iter (Obs.Sketch.record sk2) (List.init 1000 (fun i -> 1000 - i));
  Alcotest.(check string) "record order never changes state"
    (Obs.Sketch.serialize sk) (Obs.Sketch.serialize sk2);
  (* Deserialize rejects corruption with a named cause. *)
  let blob = Obs.Sketch.serialize sk in
  (match Obs.Sketch.deserialize (blob ^ "x") with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error e -> Alcotest.(check bool) "trailing named" true
      (contains ~sub:"trailing" e));
  (match Obs.Sketch.deserialize "not a sketch" with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error e ->
      Alcotest.(check bool) "magic named" true (contains ~sub:"magic" e))

(* qcheck: merging per-chunk sketches — in any order or grouping — leaves
   byte-identical state, equal to recording the whole stream into one
   sketch. Small capacities exercise the collapse path. *)
let prop_sketch_merge_canonical =
  QCheck.Test.make ~name:"sketch merge assoc/comm: canonical bytes" ~count:60
    QCheck.(
      pair (int_range 4 64)
        (list_of_size
           Gen.(0 -- 6)
           (list_of_size Gen.(0 -- 60) (int_bound (1 lsl 30)))))
    (fun (cap, chunks) ->
      let mk () = Obs.Sketch.create ~capacity:cap () in
      let parts =
        List.map
          (fun vs ->
            let s = mk () in
            List.iter (Obs.Sketch.record s) vs;
            s)
          chunks
      in
      let merged l =
        let acc = mk () in
        List.iter (fun s -> Obs.Sketch.merge ~into:acc s) l;
        Obs.Sketch.serialize acc
      in
      let all = mk () in
      List.iter (fun vs -> List.iter (Obs.Sketch.record all) vs) chunks;
      let reference = Obs.Sketch.serialize all in
      let halves l =
        let rec go i acc = function
          | rest when i = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: xs -> go (i - 1) (x :: acc) xs
        in
        go (List.length l / 2) [] l
      in
      let a, b = halves parts in
      let regrouped =
        let acc = mk () in
        (match Obs.Sketch.deserialize (merged a) with
        | Ok s -> Obs.Sketch.merge ~into:acc s
        | Error e -> Alcotest.failf "half deserialize: %s" e);
        (match Obs.Sketch.deserialize (merged b) with
        | Ok s -> Obs.Sketch.merge ~into:acc s
        | Error e -> Alcotest.failf "half deserialize: %s" e);
        Obs.Sketch.serialize acc
      in
      merged parts = reference
      && merged (List.rev parts) = reference
      && regrouped = reference
      &&
      match Obs.Sketch.deserialize reference with
      | Ok s -> Obs.Sketch.serialize s = reference
      | Error _ -> false)

(* escape_label / escape_json round-trips, plus the OpenMetrics surface
   of the per-kind family histogram. *)
let unescape_label s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    (if s.[!i] = '\\' && !i + 1 < String.length s then begin
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char buf '\n'
       | c -> Buffer.add_char buf c);
       i := !i + 2
     end
     else begin
       Buffer.add_char buf s.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

let prop_escape_label_roundtrip =
  QCheck.Test.make ~name:"escape_label roundtrip" ~count:200
    QCheck.(string_gen (Gen.oneofl [ 'a'; '"'; '\\'; '\n'; ' '; 'z' ]))
    (fun s -> unescape_label (Obs.Metrics.escape_label s) = s)

let prop_escape_json_roundtrip =
  QCheck.Test.make ~name:"escape_json roundtrip via parser" ~count:200
    QCheck.(
      string_gen
        (Gen.oneofl [ 'a'; '"'; '\\'; '\n'; '\r'; '\t'; '\001'; 'q' ]))
    (fun s ->
      let quoted = "\"" ^ Obs.Wire.escape_json s ^ "\"" in
      match Workloads.Bench_gate.Json.parse quoted with
      | Ok (Workloads.Bench_gate.Json.Str v) -> v = s
      | _ -> false)

(* The audit verifier reads records back with its own unescape: it must
   invert the shared escaper on every byte string, control and high bytes
   included. *)
let prop_audit_unescape_roundtrip =
  QCheck.Test.make ~name:"audit unescape inverts escape_json" ~count:500
    QCheck.string
    (fun s -> Obs.Audit.unescape (Obs.Wire.escape_json s) = s)

(* The per-kind family histogram: log2 bands (value v in band
   [bit length of v], bucket line at [2^b - 1]), empty bands omitted, the
   +Inf/sum/count lines, and the closing # EOF. *)
let test_metrics_family_histogram () =
  let obs = Obs.Emitter.create () in
  let family = Obs.Sketch.Family.attach obs (Obs.Sketch.Family.create ()) in
  for v = 1 to 500 do
    Obs.Emitter.emit obs Obs.Trace.Req_end ~ts:v ~arg:v
  done;
  let reg = Obs.Metrics.create () in
  Obs.Metrics.add reg ~label:"m0" ~family ();
  let prom = Obs.Metrics.to_prometheus reg in
  Alcotest.(check bool) "ends with # EOF" true
    (let n = String.length prom in
     n >= 6 && String.sub prom (n - 6) 6 = "# EOF\n");
  Alcotest.(check bool) "TYPE metadata" true
    (contains ~sub:"# TYPE erebor_event_arg histogram" prom);
  let line suffix =
    contains ~sub:({|erebor_event_arg|} ^ suffix ^ "\n") prom
  in
  let labels = {|{source="m0",kind="req.end"|} in
  Alcotest.(check bool) "band 1 holds exactly the value 1" true
    (line ("_bucket" ^ labels ^ {|,le="1"} 1|}));
  Alcotest.(check bool) "band 9 closes the 500 samples" true
    (line ("_bucket" ^ labels ^ {|,le="511"} 500|}));
  Alcotest.(check bool) "empty band omitted" false
    (contains ~sub:{|le="1023"|} prom);
  Alcotest.(check bool) "+Inf closes the histogram" true
    (line ("_bucket" ^ labels ^ {|,le="+Inf"} 500|}));
  Alcotest.(check bool) "sum" true (line ("_sum" ^ labels ^ "} 125250"));
  Alcotest.(check bool) "count" true (line ("_count" ^ labels ^ "} 500"));
  let json = Obs.Metrics.to_json reg in
  match Workloads.Bench_gate.Json.parse json with
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  | Ok _ ->
      Alcotest.(check bool) "json carries the bands" true
        (contains ~sub:{|{"lo":1,"hi":1,"count":1}|} json
        && contains ~sub:{|{"lo":256,"hi":511,"count":|} json)

(* Journal frame offsets: what Writer.offset reported at record time is
   what the reader hands back in event.off, and it points at a SEGM
   frame header. *)
let test_journal_frame_offsets () =
  let path = journal_path "offsets" in
  let w = Obs.Journal.Writer.create ~segment_bytes:512 ~path () in
  let s = Obs.Journal.Writer.stream w ~machine:"sim" in
  let expected =
    List.init 600 (fun i ->
        let off = Obs.Journal.Writer.offset w in
        Obs.Journal.Writer.record w ~stream:s Obs.Trace.Page_fault ~ts:(i * 7)
          ~arg:(i land 63 * 4096);
        off)
  in
  Obs.Journal.Writer.close w ~now:(600 * 7);
  let evs, info = read_journal path in
  Alcotest.(check bool) "several frames" true (info.Obs.Journal.segments > 2);
  let raw = In_channel.with_open_bin path In_channel.input_all in
  List.iter2
    (fun off (e : Obs.Journal.event) ->
      Alcotest.(check int) "offset matches reader" off e.Obs.Journal.off;
      Alcotest.(check string) "offset points at a SEGM frame" "SEGM"
        (String.sub raw off 4))
    expected evs;
  rm_journal path

let () =
  Alcotest.run "obs"
    [
      ( "sinks",
        [
          Alcotest.test_case "emitter fanout" `Quick test_emitter_fanout;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "with_span" `Quick test_with_span;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "counter sink mirrors legacy stats" `Quick
            test_counter_equivalence;
          Alcotest.test_case "emc_idt counted" `Quick test_emc_idt_counted;
          Alcotest.test_case "denial counts exact" `Quick test_denial_counts;
        ] );
      ( "bus-table",
        [
          Alcotest.test_case "machine counters = pre-boot sink" `Quick
            test_bus_table_matches_sink;
          Alcotest.test_case "emc_stats = snapshot" `Quick
            test_emc_stats_match_snapshot;
          Alcotest.test_case "bare emit counts, 0 words" `Quick
            test_emit_no_sinks_zero_alloc;
          Alcotest.test_case "table counts before sinks" `Quick
            test_table_counts_before_sinks;
        ] );
      ( "trace",
        [
          Alcotest.test_case "golden-trace determinism" `Quick
            test_golden_trace_determinism;
          Alcotest.test_case "trace counts match snapshot" `Quick
            test_trace_counts_match_snapshot;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "JSON escaping" `Quick test_chrome_escape;
          Alcotest.test_case "unbalanced spans" `Quick test_chrome_unbalanced;
        ] );
      ( "attrib",
        [
          Alcotest.test_case "span semantics" `Quick test_attrib_semantics;
          Alcotest.test_case "conservation on every setting" `Quick
            test_attrib_conservation;
          Alcotest.test_case "sinks never move the clock" `Quick
            test_attrib_sinks_free;
        ] );
      ( "export",
        [
          Alcotest.test_case "flame collapsed + tree" `Quick test_flame_export;
          Alcotest.test_case "metrics prometheus + json" `Quick
            test_metrics_export;
        ] );
      ( "audit",
        [
          Alcotest.test_case "chain roundtrip + close record" `Quick
            test_audit_chain_roundtrip;
          Alcotest.test_case "tampering rejected" `Quick
            test_audit_tamper_rejected;
          Alcotest.test_case "emitter audit rail" `Quick
            test_audit_emitter_rail;
        ] );
      ( "request",
        [
          Alcotest.test_case "ctx pack roundtrip" `Quick
            test_request_pack_roundtrip;
          Alcotest.test_case "single-emitter window" `Quick
            test_request_single_emitter_window;
          Alcotest.test_case "cross-machine tree" `Quick
            test_request_cross_machine_tree;
          Alcotest.test_case "sampling + latency" `Quick
            test_request_sampling_and_latency;
          Alcotest.test_case "chrome escaping of machine names" `Quick
            test_request_chrome_escaping;
        ] );
      ( "channel-ctx",
        [
          Alcotest.test_case "header encode/decode" `Quick
            test_channel_ctx_header;
          Alcotest.test_case "sealed propagation + strip" `Quick
            test_channel_ctx_propagation;
          Alcotest.test_case "machine assembles request tree" `Quick
            test_machine_request_tree;
        ] );
      ( "finalize",
        [
          Alcotest.test_case "abnormal exit flushes exports" `Quick
            test_finalize_on_abnormal_exit;
        ] );
      ( "live",
        [
          Alcotest.test_case "live sinks never move the clock" `Quick
            test_live_sinks_clock_free;
          Alcotest.test_case "anchors byte-identical under telemetry" `Quick
            test_anchors_identical_under_telemetry;
        ] );
      ( "journal",
        [
          QCheck_alcotest.to_alcotest prop_journal_roundtrip;
          Alcotest.test_case "corruption rejected with precise errors" `Quick
            test_journal_corruption_rejected;
          Alcotest.test_case "kill mid-run: sealed prefix readable" `Quick
            test_journal_kill_mid_run;
          Alcotest.test_case "snapshot = journal replay" `Quick
            test_journal_snapshot_replay;
          Alcotest.test_case "query: filter + group-by" `Quick
            test_journal_query;
          Alcotest.test_case "critical path: queueing vs service" `Quick
            test_journal_critical;
          Alcotest.test_case "diff: self silent, slowdown flagged" `Quick
            test_journal_diff;
          Alcotest.test_case "frame offsets resolve" `Quick
            test_journal_frame_offsets;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "accuracy vs oracle (adversarial)" `Quick
            test_sketch_accuracy_adversarial;
          Alcotest.test_case "quantile edges + small values exact" `Quick
            test_sketch_edges;
          Alcotest.test_case "request + query quantiles vs oracle" `Quick
            test_request_query_vs_oracle;
          Alcotest.test_case "collapse + wire edges" `Quick
            test_sketch_collapse_and_edges;
          QCheck_alcotest.to_alcotest prop_sketch_merge_canonical;
          Alcotest.test_case "family record path allocation-free" `Quick
            test_family_record_zero_alloc;
        ] );
      ( "wire",
        [
          Alcotest.test_case "known bytes + extreme values" `Quick
            test_wire_extremes;
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "family histogram + EOF" `Quick
            test_metrics_family_histogram;
          QCheck_alcotest.to_alcotest prop_escape_label_roundtrip;
          QCheck_alcotest.to_alcotest prop_escape_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_audit_unescape_roundtrip;
        ] );
    ]
