(* The four workloads.  Each is a closed loop from one client: the next op
   is issued only after the previous one returned.  A run repeats whole
   rounds of a fixed op list until the measured op time reaches the run
   length, so the op mix is identical in every run.  Set-up (building the
   world plus one untimed warm-up op) is repeated [setup_reps] times and
   its median reported, so work moved into set-up shows.  Ops and set-up
   are timed in process CPU time ({!Meter.cpu_ms}). *)

let setup_reps = 3

(* What a run measured, filled in op by op. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** correctness failures, newest first *)
  mutable timed_s : float;  (** CPU seconds spent inside ops *)
  mutable op_ms : float list;  (** CPU ms of every op *)
  mutable last_ms : float;
  mutable work : int;  (** work units: verdicts, or predicate replays for fuzz-shrink *)
  mutable alloc_words : float;  (** words allocated inside ops, all domains *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable promoted_words : float;
}

type outcome = {
  t : tally;
  setup_s : float;  (** median CPU seconds of one set-up *)
  info : (string * float * string) list;  (** workload-specific figures for the log *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    errors = [];
    timed_s = 0.;
    op_ms = [];
    last_ms = 0.;
    work = 0;
    alloc_words = 0.;
    minor_gcs = 0;
    major_gcs = 0;
    promoted_words = 0.;
  }

let check t = function Ok () -> () | Error e -> t.errors <- e :: t.errors

(* A failed op is counted by [op]; its reason goes to stderr. *)
let failure fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Run [f] as measured work: its host time and the GC work of every
   domain are charged to the tally; the benchmark's checks between ops are
   not. *)
let timed t f =
  let s0 = Gc.quick_stat () in
  let x, ms = Meter.cpu_ms f in
  let s1 = Gc.quick_stat () in
  t.timed_s <- t.timed_s +. (ms /. 1000.);
  t.last_ms <- ms;
  t.alloc_words <- t.alloc_words +. Meter.words s1 -. Meter.words s0;
  t.minor_gcs <- t.minor_gcs + s1.minor_collections - s0.minor_collections;
  t.major_gcs <- t.major_gcs + s1.major_collections - s0.major_collections;
  t.promoted_words <- t.promoted_words +. s1.promoted_words -. s0.promoted_words;
  (x, ms)

(* Time one op; [f] returns [true] when the op succeeded. *)
let op t ~work f =
  t.attempted <- t.attempted + 1;
  let (ok, x), ms = timed t f in
  t.op_ms <- ms :: t.op_ms;
  if ok then t.work <- t.work + work else t.failed <- t.failed + 1;
  x

let setup build =
  let times = ref [] and world = ref None in
  for _ = 1 to setup_reps do
    (* drop the previous world first so set-ups do not pile up in the heap *)
    world := None;
    let w, ms = Meter.cpu_ms build in
    times := (ms /. 1000.) :: !times;
    world := Some w
  done;
  (Option.get !world, Meter.median !times)

(* Run whole rounds until the op time reaches [seconds]. *)
let timed_rounds t ~seconds round =
  let r = ref 0 in
  while t.timed_s < seconds do
    Trace.set_op !r;
    round !r;
    incr r
  done

let finish t ~setup_s ~info = { t; setup_s; info }

(* --- Attestation clouds --------------------------------------------------- *)

let backends = [| Tpm.Backend.Classic; Tpm.Backend.Evtpm; Tpm.Backend.Cvm_report |]

(* 3 servers, 512-bit keys, one backend of each kind, one AS.  The cloud
   seed fixes every key the cloud generates, set-up and per-verdict session
   keys alike; the attestation workloads keep it at [cloud_seed] so that
   the random length of prime searches does not differ from run to run,
   and take everything else (images, planted VMs, op order, nonces) from
   the run's seed. *)
let cloud_seed = 2015

let cloud_config ~seed =
  { Core.Cloud.default_config with seed; key_bits = 512; backend_of = (fun i -> backends.(i mod 3)) }

let integrity = [ Core.Property.Runtime_integrity; Core.Property.Startup_integrity ]
let images = [| "cirros"; "fedora"; "ubuntu" |]

type world = {
  cloud : Core.Cloud.t;
  ctl : Core.Controller.t;
  key : Crypto.Rsa.public;
  drbg : Crypto.Drbg.t;  (** customer nonces *)
  prng : Sim.Prng.t;  (** workload choices *)
  mutable launches : int;  (** images rotate from a seeded offset *)
  planted : (string, unit) Hashtbl.t;
  last_write : (string, Sim.Time.t) Hashtbl.t;  (** sim time of the last lifecycle write per VM *)
}

let build_cloud ~seed =
  let cloud =
    Trace.span ~layer:"core" "w.core.cloud_build" (fun () ->
        Core.Cloud.build ~config:(cloud_config ~seed:cloud_seed) ())
  in
  let ctl = Core.Cloud.controller cloud in
  {
    cloud;
    ctl;
    key = Core.Controller.public_key ctl;
    drbg = Crypto.Drbg.create ~seed:("e2ebench|" ^ string_of_int seed);
    prng = Sim.Prng.create seed;
    launches = Sim.Prng.int (Sim.Prng.create seed) (Array.length images);
    planted = Hashtbl.create 8;
    last_write = Hashtbl.create 32;
  }

(* A lifecycle write happens 1 ms after anything produced before it, so a
   verdict that predates it is recognisable by its [produced_at]. *)
let tick w = Core.Cloud.run_for w.cloud (Sim.Time.ms 1)

let note_write w vid =
  tick w;
  Hashtbl.replace w.last_write vid (Core.Cloud.now w.cloud)

let launch w =
  tick w;
  let image = images.(w.launches mod Array.length images) in
  w.launches <- w.launches + 1;
  let req =
    {
      Core.Controller.owner = "e2ebench";
      image;
      flavor = "small";
      properties = integrity;
      workload = "";
      pins = [];
    }
  in
  match Trace.span ~layer:"core" "w.core.launch" (fun () -> Core.Controller.launch w.ctl req) with
  | Ok info ->
      let vid = info.Core.Commands.vid in
      Hashtbl.replace w.last_write vid (Core.Cloud.now w.cloud);
      Some vid
  | Error _ -> None

let plant w vid =
  let infected =
    match Core.Controller.vm_host w.ctl ~vid with
    | None -> false
    | Some host -> (
        match Core.Cloud.find_server w.cloud host with
        | None -> false
        | Some srv -> (
            match Hypervisor.Server.find srv vid with
            | None -> false
            | Some inst ->
                ignore
                  (Attacks.Malware.infect_hidden inst.Hypervisor.Server.vm ()
                    : Hypervisor.Guest_os.process);
                true))
  in
  if infected then Hashtbl.replace w.planted vid ();
  infected

let launch_many w n = List.filter_map (fun _ -> launch w) (List.init n Fun.id)
let planted w vid = Hashtbl.mem w.planted vid
let last_write w vid = Hashtbl.find_opt w.last_write vid

(* One verified attestation through the controller's attest service: the
   benchmark plays the customer, drawing the nonce N1 and checking the
   signed verdict itself. *)
let attest w t ~vid ~property =
  let nonce = Crypto.Drbg.nonce w.drbg in
  let result, ledger =
    op t ~work:1 (fun () ->
        let ((res, _) as x) =
          Trace.span ~layer:"core" "w.core.controller_attest" (fun () ->
              Core.Controller.attest w.ctl { Core.Protocol.vid; property; nonce })
        in
        (Result.is_ok res, x))
  in
  (match result with
  | Error e -> failure "%s: attest error %s" vid e
  | Ok r ->
      check t
        (Checks.verdict ~key:w.key ~vid ~property ~nonce
           ~expect:(Checks.expected ~planted:(planted w) ~vid property)
           r);
      check t (Checks.fresh ~vid ~last_write:(last_write w) r));
  ledger

(* --- attest-cold ---------------------------------------------------------- *)

let cold_vms = 9
let cold_planted = 3

let attest_cold ~seed ~seconds =
  let build () =
    let w = build_cloud ~seed in
    let vids = Array.of_list (launch_many w cold_vms) in
    let order = Array.copy vids in
    Sim.Prng.shuffle w.prng order;
    Array.iteri (fun i vid -> if i < cold_planted then ignore (plant w vid : bool)) order;
    ignore (attest w (tally ()) ~vid:vids.(0) ~property:Core.Property.Runtime_integrity : Core.Ledger.t);
    (w, vids)
  in
  let (w, vids), setup_s = setup build in
  let t = tally () in
  if Array.length vids <> cold_vms then t.errors <- "launch failed in set-up" :: t.errors;
  (* one round: every VM x both integrity properties, in a seeded order *)
  let plan = Array.of_list (List.concat_map (fun vid -> List.map (fun p -> (vid, p)) integrity) (Array.to_list vids)) in
  Sim.Prng.shuffle w.prng plan;
  let sim_ms = ref [] in
  timed_rounds t ~seconds (fun _ ->
        Array.iter
          (fun (vid, property) ->
            let ledger = attest w t ~vid ~property in
            sim_ms := Sim.Time.to_ms (Core.Ledger.total ledger) :: !sim_ms)
          plan);
  let p95 = if Meter.tail_ok 95. (List.length t.op_ms) then Meter.percentile 95. t.op_ms else nan in
  finish t ~setup_s
    ~info:
      [
        ("verdicts_per_s", float_of_int t.work /. t.timed_s, "1/s");
        ("attest_p50_ms", Meter.median t.op_ms, "ms");
        ("attest_p95_ms", p95, "ms");
        ("sim_attest_ms", Meter.median !sim_ms, "ms");
      ]

(* --- attest-churn --------------------------------------------------------- *)

let churn_hot = 3
let churn_cold = 6
let churn_hits_per_vm = 4

(* Verdict-cache TTL and the per-round advance that expires every entry,
   so each round's batch meets a cold cache and the hot singles miss once
   per VM before hitting. *)
let churn_ttl = Sim.Time.ms 50
let churn_advance = Sim.Time.ms 60

(* Every log entry appended since [from] gets a receipt against the latest
   signed head, checked with [Audit.Receipt.verify]. *)
let check_receipts t logs from =
  List.iter2
    (fun log start ->
      match Audit.Log.latest_sth log with
      | None -> if Audit.Log.size log > start then t.errors <- "audit log has no signed head" :: t.errors
      | Some sth ->
          for index = start to sth.Audit.Sth.size - 1 do
            match Audit.Log.entry log index with
            | None -> t.errors <- "audit entry missing" :: t.errors
            | Some entry ->
                let rc = { Audit.Receipt.index; sth; proof = Audit.Log.inclusion log ~size:sth.Audit.Sth.size index } in
                check t (Checks.receipt ~key:(Audit.Log.public_key log) ~entry rc)
          done)
    logs from

let attest_churn ~seed ~seconds =
  let build () =
    let w = build_cloud ~seed in
    Core.Controller.set_verdict_cache_ttl w.ctl churn_ttl;
    Core.Controller.set_batching w.ctl true;
    let logs = Core.Cloud.enable_audit ~checkpoint_interval:(Sim.Time.ms 100) w.cloud in
    let hot = Array.of_list (launch_many w churn_hot) in
    let cold = Queue.create () in
    List.iter (fun v -> Queue.add v cold) (launch_many w churn_cold);
    (* one planted VM in the cold set; its replacement inherits the plant *)
    ignore (plant w (Queue.peek cold) : bool);
    ignore (attest w (tally ()) ~vid:hot.(0) ~property:Core.Property.Runtime_integrity : Core.Ledger.t);
    (w, logs, hot, cold)
  in
  let (w, logs, hot, cold), setup_s = setup build in
  let t = tally () in
  if Array.length hot <> churn_hot || Queue.length cold <> churn_cold then
    t.errors <- "launch failed in set-up" :: t.errors;
  let batch_ms = ref [] and single_ms = ref [] and life_ms = ref [] in
  let timed_op bucket f =
    let x = f () in
    bucket := t.last_ms :: !bucket;
    x
  in
  let single vid = timed_op single_ms (fun () -> ignore (attest w t ~vid ~property:Core.Property.Runtime_integrity : Core.Ledger.t)) in
  let lifecycle name f = timed_op life_ms (fun () -> op t ~work:0 (fun () -> let r = Trace.span ~layer:"core" ("w." ^ name) f in (r <> None, r))) in
  let respond strategy vid =
    note_write w vid;
    match Core.Controller.respond w.ctl strategy ~vid with
    | Ok _ ->
        Hashtbl.replace w.last_write vid (Core.Cloud.now w.cloud);
        Some ()
    | Error e ->
        failure "%s: lifecycle error %s" vid e;
        None
  in
  timed_rounds t ~seconds (fun r ->
        let sizes = List.map Audit.Log.size logs in
        Core.Cloud.run_for w.cloud churn_advance;
        (* batched round over the cold set *)
        let cold_vids = List.of_seq (Queue.to_seq cold) in
        let reqs =
          List.map
            (fun vid -> { Core.Protocol.vid; property = Core.Property.Runtime_integrity; nonce = Crypto.Drbg.nonce w.drbg })
            cold_vids
        in
        let results, _ =
          timed_op batch_ms (fun () ->
              op t ~work:(List.length reqs) (fun () ->
                  let ((res, _) as x) =
                    Trace.span ~layer:"core" "w.core.attest_many" (fun () -> Core.Controller.attest_many w.ctl reqs)
                  in
                  (List.for_all (fun (_, r) -> Result.is_ok r) res, x)))
        in
        List.iter
          (fun ((req : Core.Protocol.attest_request), res) ->
            match res with
            | Error e -> failure "%s: batch item error %s" req.vid e
            | Ok rep ->
                check t
                  (Checks.verdict ~key:w.key ~vid:req.vid ~property:req.property ~nonce:req.nonce
                     ~expect:(Checks.expected ~planted:(planted w) ~vid:req.vid req.property)
                     rep);
                check t (Checks.fresh ~vid:req.vid ~last_write:(last_write w) rep))
          results;
        (* hot singles: one miss per VM, then cache hits *)
        for _ = 1 to churn_hits_per_vm do
          Array.iter single hot
        done;
        (* lifecycle writes: migrate a hot VM (its cached verdict must not
           be served again), then rotate the oldest cold VM out *)
        let mover = hot.(r mod churn_hot) in
        ignore (lifecycle "core.migrate" (fun () -> respond Core.Controller.Migrate_vm mover) : unit option);
        single mover;
        let old = Queue.pop cold in
        ignore (lifecycle "core.terminate" (fun () -> respond Core.Controller.Terminate_vm old) : unit option);
        (match lifecycle "core.launch" (fun () -> launch w) with
        | Some vid ->
            Queue.add vid cold;
            if planted w old && not (plant w vid) then t.errors <- "plant failed" :: t.errors
        | None -> t.errors <- "launch failed" :: t.errors);
        check_receipts t logs sizes);
  let stats_cache = Core.Verdict_cache.stats (Core.Controller.verdict_cache w.ctl) in
  Trace.count "core.verdict_cache.hits" (float_of_int stats_cache.hits);
  Trace.count "core.verdict_cache.misses" (float_of_int stats_cache.misses);
  Trace.count "core.verdict_cache.invalidations" (float_of_int stats_cache.invalidations);
  Trace.count "audit.appends" (float_of_int (List.fold_left (fun n l -> n + Audit.Log.appends l) 0 logs));
  let p95 = if Meter.tail_ok 95. (List.length !single_ms) then Meter.percentile 95. !single_ms else nan in
  finish t ~setup_s
    ~info:
      [
        ("verdicts_per_s", float_of_int t.work /. t.timed_s, "1/s");
        ("attest_p50_ms", Meter.median !single_ms, "ms");
        ("attest_p95_ms", p95, "ms");
        ("batch_p50_ms", Meter.median !batch_ms, "ms");
        ("lifecycle_p50_ms", Meter.median !life_ms, "ms");
        ("cache_hits", float_of_int stats_cache.hits, "count");
        ("cache_misses", float_of_int stats_cache.misses, "count");
        ("cache_invalidations", float_of_int stats_cache.invalidations, "count");
      ]

(* --- fleet-monitor -------------------------------------------------------- *)

(* The committed BENCH_monitor default scenario: 10^4 VMs, 16 AS, 5 s
   freshness budget, rack compromise of cluster 0, over a fixed list of
   scenario seeds; the run's seed picks the order.  Timed runs use one
   domain: at two, every epoch barrier and stop-the-world minor collection
   waits for both vCPUs, so a steal burst on either one stalls the run.
   Each seed is also run at two domains, and its fingerprint must equal
   the timed run's; the traced ladder times both domain counts. *)
let fleet_budget = Sim.Time.sec 5
let fleet_seeds = [ 2015; 2016 ]

let fleet_config ~seed ~domains =
  let base, tick, _, storm_at, _ = Experiments.Monitor_exp.scenario ~seed `Default in
  {
    base with
    Fleet.Driver.domains;
    monitor =
      Some
        (Experiments.Monitor_exp.monitor_of ~tick ~budget:fleet_budget
           ~storms:[ Fleet.Monitor.Rack_compromise { at = storm_at; cluster = 0 } ]);
  }

let fleet_run config = Trace.span ~layer:"fleet" "w.fleet.run" (fun () -> Fleet.Driver.run config)

let fleet_monitor ~seed ~seconds =
  let seeds = if seed mod 2 = 0 then fleet_seeds else List.rev fleet_seeds in
  let build () =
    let configs = List.map (fun s -> fleet_config ~seed:s ~domains:1) seeds in
    ignore (fleet_run (List.hd configs) : Fleet.Driver.result);
    configs
  in
  let configs, setup_s = setup build in
  let t = tally () in
  let fingerprints = Hashtbl.create 8 in
  timed_rounds t ~seconds (fun _ ->
        List.iter
          (fun config ->
            let r = op t ~work:0 (fun () -> (true, fleet_run config)) in
            t.work <- t.work + r.Fleet.Driver.served;
            check t (Checks.fleet ~budget:fleet_budget r);
            Hashtbl.replace fingerprints config.Fleet.Driver.seed (Fleet.Driver.fingerprint r))
          configs);
  (* determinism: each seed's domains=1 fingerprint against a domains=2 run *)
  Hashtbl.iter
    (fun s fp ->
      let d2 = Fleet.Driver.run (fleet_config ~seed:s ~domains:2) in
      check t (Checks.same_fingerprint ~d1:fp ~d2:(Fleet.Driver.fingerprint d2)))
    fingerprints;
  finish t ~setup_s
    ~info:
      [
        ("verdicts_per_s", float_of_int t.work /. t.timed_s, "1/s");
        ("run_p50_ms", Meter.median t.op_ms, "ms");
      ]

(* --- fuzz-shrink ---------------------------------------------------------- *)

(* Minimal repros of the four planted mutants (the pinned tier-1 ones),
   each with the oracle that convicts it. *)
let mutants =
  [
    (Fuzz.Replay.Skip_invalidate_on_migrate, "cache-consistency", "seed=2035 ops=L1.0.0;c50;a0.3;M1;a1.3");
    (Fuzz.Replay.Skip_invalidate_on_resume, "cache-consistency", "seed=7 ops=L0.1.0;c5000;S0;a0.1;R0;a0.1");
    (Fuzz.Replay.Rebind_on_restore, "vtpm-stale-binding", "seed=5 ops=L0.1.0;L0.1.0;vs1;a1.0");
    (Fuzz.Replay.Lazy_monitor, "monitor-freshness", "seed=3 ops=L0.1.0;me200;t5000");
  ]

(* Padding drawn from ops that cannot change whether the repro fails:
   batching toggles, the one-way audit switch and 1-2 ms advances (the
   tightest repro has a 50 ms cache TTL).  The count is fixed so every
   seed shrinks inputs of the same size. *)
let pad_ops = [| "b1"; "b0"; "u"; "t1"; "t2" |]
let pads_per_repro = 1

let padded ~prng line =
  match Fuzz.Op.of_string line with
  | None -> invalid_arg ("repro line: " ^ line)
  | Some s ->
      let ops = ref s.Fuzz.Op.ops in
      for _ = 1 to pads_per_repro do
        let pad = Option.get (Fuzz.Op.op_of_string (Sim.Prng.pick prng pad_ops)) in
        let at = Sim.Prng.int prng (List.length !ops + 1) in
        ops := List.filteri (fun i _ -> i < at) !ops @ (pad :: List.filteri (fun i _ -> i >= at) !ops)
      done;
      { s with Fuzz.Op.ops = !ops }

let replay ~bug s =
  match Fuzz.Replay.run ~bug s with
  | o -> (List.map (fun (v : Fuzz.Oracle.violation) -> v.oracle) o.violations, o.digest)
  | exception e -> ([ "exception" ], Printexc.to_string e)

let fuzz_inputs ~seed =
  List.mapi (fun idx (bug, oracle, line) -> (bug, oracle, padded ~prng:(Sim.Prng.create ((seed * 4) + idx)) line)) mutants

(* An op is one predicate replay.  [Shrink.minimize] is timed as a whole
   and adds its replays to the op count; the result check's replays are
   timed one by one, and those are the samples behind op_p50_ms. *)
let fuzz_shrink ~seed ~seconds =
  let build () =
    let inputs = fuzz_inputs ~seed in
    (* warm-up: one replay *)
    (match inputs with (bug, _, s) :: _ -> ignore (replay ~bug s) | [] -> ());
    inputs
  in
  let inputs, setup_s = setup build in
  let t = tally () in
  let timed_replay ~bug s = op t ~work:1 (fun () -> (true, Trace.span ~layer:"fuzz" "w.fuzz.replay" (fun () -> replay ~bug s))) in
  let shrunk_sizes = ref [] in
  timed_rounds t ~seconds (fun _ ->
        List.iter
          (fun (bug, oracle, s) ->
            let (shrunk, n), _ =
              timed t (fun () ->
                  Trace.span ~layer:"fuzz" "w.fuzz.minimize" (fun () -> Fuzz.Shrink.minimize ~bug ~oracle s))
            in
            t.attempted <- t.attempted + n;
            t.work <- t.work + n;
            shrunk_sizes := float_of_int (List.length shrunk.Fuzz.Op.ops) :: !shrunk_sizes;
            check t (Checks.shrink ~replay:timed_replay ~oracle ~bug ~original:s shrunk))
          inputs);
  finish t ~setup_s
    ~info:
      [
        ("replays_per_s", float_of_int t.work /. t.timed_s, "1/s");
        ("replay_p50_ms", Meter.median t.op_ms, "ms");
        ("shrunk_ops_mean", List.fold_left ( +. ) 0. !shrunk_sizes /. float_of_int (max 1 (List.length !shrunk_sizes)), "count");
      ]

let all = [ ("attest-cold", attest_cold); ("attest-churn", attest_churn); ("fleet-monitor", fleet_monitor); ("fuzz-shrink", fuzz_shrink) ]
