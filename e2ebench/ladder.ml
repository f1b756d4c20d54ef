(* The traced run's ladder: direct calls into each layer with
   workload-shaped inputs (512-bit keys, batch-sized Merkle trees,
   fleet-sized heap residency, the monitored 10^4-VM scenario, a padded
   fuzz repro), each wrapped in a span, plus counters read from the
   program's own accessors.  [metrics] turns the spans recorded by the
   ladder and by the workload into the per-layer figures. *)

let span = Trace.span

(* Wrong outputs of the ladder's own calls, newest first; a traced run
   with any is not correct. *)
let errors = ref []
let fail e = errors := e :: !errors

let repeat n f =
  for _ = 1 to n do
    f ()
  done

(* Time [n] calls of [f] inside one span; the span's share per call is
   what the ns-scale figures report. *)
let bulk ~layer name n f =
  span ~layer name (fun () ->
      for i = 1 to n do
        f i
      done);
  Trace.count (name ^ ".n") (float_of_int n)

let crypto () =
  let drbg = Crypto.Drbg.create ~seed:"e2ebench-ladder" in
  let kp = ref (Crypto.Rsa.generate drbg ~bits:512) in
  repeat 16 (fun () -> kp := span ~layer:"crypto" "crypto.rsa_generate" (fun () -> Crypto.Rsa.generate drbg ~bits:512));
  let msg = Crypto.Drbg.random_bytes drbg 200 in
  let signature = Crypto.Rsa.sign !kp.Crypto.Rsa.secret msg in
  repeat 64 (fun () -> ignore (span ~layer:"crypto" "crypto.rsa_sign" (fun () -> Crypto.Rsa.sign !kp.Crypto.Rsa.secret msg) : string));
  repeat 256 (fun () ->
      ignore (span ~layer:"crypto" "crypto.rsa_verify" (fun () -> Crypto.Rsa.verify !kp.Crypto.Rsa.public ~signature msg) : bool));
  (* a batch-32 Merkle root over quote-sized leaves *)
  let leaves = List.init 32 (fun i -> Crypto.Sha256.digest (string_of_int i)) in
  repeat 256 (fun () -> ignore (span ~layer:"crypto" "crypto.merkle_root" (fun () -> Crypto.Merkle.root leaves) : string));
  !kp

let sim () =
  (* push+pop pairs at 64k resident events, the fleet's queue depth *)
  let h = Sim.Heap.create ~cmp:compare in
  let prng = Sim.Prng.create 7 in
  for _ = 1 to 65_536 do
    Sim.Heap.push h (Sim.Prng.int prng 1_000_000_000)
  done;
  bulk ~layer:"sim" "sim.heap" 200_000 (fun _ ->
      Sim.Heap.push h (Sim.Prng.int prng 1_000_000_000);
      ignore (Sim.Heap.pop h : int option));
  let e = Sim.Engine.create () in
  let n = 200_000 in
  let fired = ref 0 in
  bulk ~layer:"sim" "sim.engine_event" 1 (fun _ ->
      for i = 1 to n do
        ignore (Sim.Engine.schedule e ~at:(Sim.Time.us (i * 7 mod 100_000)) (fun () -> incr fired) : Sim.Engine.handle)
      done;
      Sim.Engine.run_until e (Sim.Time.sec 1));
  Trace.count "sim.engine_event.n" (float_of_int !fired)

let fleet ~seed =
  repeat 5 (fun () ->
      ignore
        (span ~layer:"fleet" "fleet.topology" (fun () ->
             Fleet.Topology.make ~seed ~servers:500 ~vms:10_000 ~as_count:16)
          : Fleet.Topology.t));
  let q = Fleet.Pqueue.create ~depth:64 in
  let prios = Array.of_list Fleet.Pqueue.all_priorities in
  bulk ~layer:"fleet" "fleet.pqueue" 200_000 (fun i ->
      ignore (Fleet.Pqueue.push q prios.(i mod 3) i : int Fleet.Pqueue.admission);
      if Fleet.Pqueue.length q > 32 then ignore (Fleet.Pqueue.pop q : (Fleet.Pqueue.priority * int) option));
  let run domains =
    span ~layer:"fleet" (Printf.sprintf "fleet.run.d%d" domains) (fun () ->
        Fleet.Driver.run (Workloads.fleet_config ~seed ~domains))
  in
  ignore (run 1 : Fleet.Driver.result);
  let r = run 2 in
  let c name v = Trace.count ("fleet." ^ name) v in
  c "served" (float_of_int r.served);
  c "measurements" (float_of_int r.measurements);
  c "mon_scheduled" (float_of_int r.mon_scheduled);
  c "coalesced" (float_of_int r.coalesced);
  c "epochs" (float_of_int r.epochs);
  c "sim_served_rps" r.served_rps;
  c "sim_p99_ms" r.p99_ms;
  c "mon_fresh_min" r.mon_fresh_min;
  c "sim_detect_ms"
    (match Experiments.Monitor_exp.time_to_detect r with
    | Some (Some d) -> Sim.Time.to_ms d
    | _ -> nan)

(* The fuzzer's replay cloud: 3 servers, 2 AS, 512 bits, all backends. *)
let fuzz_cloud_config =
  {
    (Workloads.cloud_config ~seed:2035) with
    Core.Cloud.num_attestation_servers = 2;
  }

let fuzz () =
  let bug, oracle, line = List.hd Workloads.mutants in
  let s = Workloads.padded ~prng:(Sim.Prng.create 1) line in
  (* interleaved, so that host drift touches both medians alike: the
     replay's own cloud is this same build (same config and seed) *)
  repeat 6 (fun () ->
      ignore (span ~layer:"fuzz" "fuzz.replay_run" (fun () -> Fuzz.Replay.run ~bug s) : Fuzz.Replay.outcome);
      ignore
        (span ~layer:"core" "core.cloud_build.hetero" (fun () -> Core.Cloud.build ~config:fuzz_cloud_config ())
          : Core.Cloud.t));
  let _, replays = span ~layer:"fuzz" "fuzz.minimize" (fun () -> Fuzz.Shrink.minimize ~bug ~oracle s) in
  Trace.count "fuzz.shrink_replays" (float_of_int replays)

let audit key =
  let log = Audit.Log.create ~log_id:"e2ebench" ~key () in
  let entry = String.make 420 'r' in
  for i = 0 to 1023 do
    ignore (span ~layer:"audit" "audit.append" (fun () -> Audit.Log.append log (entry ^ string_of_int i)) : int)
  done;
  repeat 64 (fun () ->
      let e = entry ^ "x" in
      let rc = Audit.Log.append_with_receipt log e in
      ignore
        (span ~layer:"audit" "audit.receipt_verify" (fun () ->
             Audit.Receipt.verify ~key:(Audit.Log.public_key log) ~entry:e rc)
          : bool));
  repeat 32 (fun () -> ignore (span ~layer:"audit" "audit.checkpoint" (fun () -> Audit.Log.checkpoint log) : Audit.Sth.t))

(* Attestation layers on a hetero cloud, outermost first: the customer API
   (secure channel + chain verification), the controller's attest
   service, the AS appraisal, the trust backends and the monitor kernel. *)
let core ~seed =
  ignore
    (span ~layer:"core" "core.cloud_build.classic" (fun () ->
         Core.Cloud.build ~config:{ (Workloads.cloud_config ~seed) with backend_of = (fun _ -> Tpm.Backend.Classic) } ())
      : Core.Cloud.t);
  let w = Workloads.build_cloud ~seed in
  let cust = Core.Cloud.Customer.create w.cloud ~name:"e2ebench-customer" in
  let vids =
    List.filter_map
      (fun i ->
        Workloads.tick w;
        match
          span ~layer:"core" "core.launch" (fun () ->
              Core.Cloud.Customer.launch cust ~image:Workloads.images.(i mod 3) ~flavor:"small"
                ~properties:Workloads.integrity ())
        with
        | Ok info -> Some info.Core.Commands.vid
        | Error _ -> None)
      (List.init 6 Fun.id)
  in
  let ctl = w.ctl and net = Core.Cloud.net w.cloud in
  let as_ = Core.Cloud.attestation_server w.cloud in
  let property = Core.Property.Runtime_integrity in
  let captured = ref None and sim_ms = ref [] in
  let msgs = ref 0 and bytes = ref 0 and retries = ref 0 and verdicts = ref 0 in
  (* cold rounds through each layer in turn, outermost first *)
  repeat 6 (fun () ->
      List.iter
        (fun vid ->
          ignore
            (span ~layer:"core" "core.customer_attest" (fun () -> Core.Cloud.Customer.attest cust ~vid ~property)
              : (Core.Report.t, Core.Cloud.Customer.error) result);
          let nonce = Crypto.Drbg.nonce w.drbg in
          let m0 = Net.Network.message_count net and b0 = Net.Network.bytes_sent net in
          let r0 = Net.Network.retry_count net in
          let res, ledger =
            span ~layer:"core" "core.controller_attest" (fun () ->
                Core.Controller.attest ctl { Core.Protocol.vid; property; nonce })
          in
          incr verdicts;
          msgs := !msgs + Net.Network.message_count net - m0;
          bytes := !bytes + Net.Network.bytes_sent net - b0;
          retries := !retries + Net.Network.retry_count net - r0;
          sim_ms := Sim.Time.to_ms (Core.Ledger.total ledger) :: !sim_ms;
          (match res with Ok r -> captured := Some r | Error _ -> ());
          match Core.Controller.vm_host ctl ~vid with
          | None -> ()
          | Some server ->
              ignore
                (span ~layer:"core" "core.as_attest" (fun () ->
                     Core.Attestation_server.attest as_ ~vid ~server ~property ~nonce)
                  : (Core.Protocol.as_report, Core.Attestation_server.error) result * Core.Ledger.t))
        vids);
  let per = float_of_int (max 1 !verdicts) in
  Trace.count "net.messages_per_verdict" (float_of_int !msgs /. per);
  Trace.count "net.bytes_per_verdict" (float_of_int !bytes /. per);
  Trace.count "net.retries" (float_of_int !retries);
  Trace.count "core.sim_attest_ms" (Meter.median !sim_ms);
  (* wire: encode/decode round trips of a captured controller report *)
  (match !captured with
  | None -> ()
  | Some r ->
      bulk ~layer:"wire" "wire.protocol_roundtrip" 2_000 (fun _ ->
          if Core.Protocol.decode_controller_report (Core.Protocol.encode_controller_report r) <> Some r
          then fail "wire: controller report changed in an encode/decode round trip"));
  (* trust backends: one session per call, per backend kind *)
  List.iter
    (fun srv ->
      match Hypervisor.Server.trust_backend srv with
      | None -> ()
      | Some b ->
          let name = "tpm.begin_session." ^ Tpm.Backend.kind_to_string (Tpm.Backend.kind b) in
          repeat 16 (fun () ->
              let s = span ~layer:"tpm" name (fun () -> Tpm.Backend.begin_session b) in
              Tpm.Backend.end_session b s))
    (Core.Cloud.servers w.cloud);
  (* monitor kernel: runtime-integrity collection on a live VM *)
  (match vids with
  | [] -> ()
  | vid :: _ -> (
      match Option.bind (Core.Controller.vm_host ctl ~vid) (Core.Cloud.find_server w.cloud) with
      | None -> ()
      | Some srv ->
          let k = Monitors.Monitor_kernel.create srv in
          let reqs = Core.Interpret.requests_for Core.Interpret.default_refs property in
          bulk ~layer:"monitors" "monitors.collect" 200 (fun _ ->
              if Result.is_error (Monitors.Monitor_kernel.collect k ~vid reqs) then
                fail "monitors: Monitor_kernel.collect returned an error")));
  (* cache hits, batched rounds, lifecycle *)
  Core.Controller.set_verdict_cache_ttl ctl (Sim.Time.sec 60);
  List.iter (fun vid -> ignore (Core.Controller.attest ctl { Core.Protocol.vid; property; nonce = "warm" })) vids;
  (* with every verdict cached both calls skip the AS, so their difference
     is the customer layer's own cost (secure channel + chain checks)
     without the key-generation spread of a cold round *)
  repeat 8 (fun () ->
      List.iter
        (fun vid ->
          ignore
            (span ~layer:"core" "core.cache_hit_attest" (fun () ->
                 Core.Controller.attest ctl { Core.Protocol.vid; property; nonce = Crypto.Drbg.nonce w.drbg }));
          ignore
            (span ~layer:"core" "core.customer_cache_hit_attest" (fun () ->
                 Core.Cloud.Customer.attest cust ~vid ~property)
              : (Core.Report.t, Core.Cloud.Customer.error) result))
        vids);
  Core.Controller.set_verdict_cache_ttl ctl 0;
  Core.Controller.set_batching ctl true;
  repeat 4 (fun () ->
      let reqs = List.map (fun vid -> { Core.Protocol.vid; property; nonce = Crypto.Drbg.nonce w.drbg }) vids in
      ignore (span ~layer:"core" "core.attest_many" (fun () -> Core.Controller.attest_many ctl reqs)));
  List.iteri
    (fun i vid ->
      Workloads.note_write w vid;
      if i mod 2 = 0 then
        ignore (span ~layer:"core" "core.migrate" (fun () -> Core.Controller.respond ctl Core.Controller.Migrate_vm ~vid))
      else
        ignore (span ~layer:"core" "core.terminate" (fun () -> Core.Controller.respond ctl Core.Controller.Terminate_vm ~vid)))
    vids

let run ~seed =
  errors := [];
  let kp = crypto () in
  core ~seed;
  audit kp.Crypto.Rsa.secret;
  sim ();
  fleet ~seed;
  fuzz ()

(* --- Per-layer metrics ---------------------------------------------------- *)

type metric = { name : string; unit_ : string; better : string }

let m name unit_ better = { name; unit_; better }
let lower name unit_ = m name unit_ "lower"
let higher name unit_ = m name unit_ "higher"

(* Every per-layer metric, in the order BENCHMARK.json lists them. *)
let catalogue =
  [
    lower "crypto.rsa_generate_ms" "ms";
    lower "crypto.rsa_generate_kb" "KiB";
    lower "crypto.rsa_sign_ms" "ms";
    lower "crypto.rsa_verify_ms" "ms";
    higher "crypto.verify_memo_hits" "count";
    lower "crypto.verify_memo_misses" "count";
    lower "crypto.merkle_root_us" "us";
    lower "tpm.begin_session_ms.classic" "ms";
    lower "tpm.begin_session_ms.evtpm" "ms";
    lower "tpm.begin_session_ms.cvm_report" "ms";
    lower "net.messages_per_verdict" "count";
    lower "net.bytes_per_verdict" "B";
    lower "net.retries" "count";
    lower "wire.protocol_roundtrip_us" "us";
    lower "monitors.collect_us" "us";
    lower "core.customer_attest_ms" "ms";
    lower "core.controller_attest_ms" "ms";
    lower "core.as_attest_ms" "ms";
    lower "core.customer_self_ms" "ms";
    lower "core.controller_self_ms" "ms";
    lower "core.cache_hit_attest_ms" "ms";
    higher "core.verdict_cache.hits" "count";
    lower "core.verdict_cache.misses" "count";
    lower "core.verdict_cache.invalidations" "count";
    lower "core.attest_many_ms" "ms";
    lower "core.launch_ms" "ms";
    lower "core.terminate_ms" "ms";
    lower "core.migrate_ms" "ms";
    lower "core.cloud_build_ms.classic" "ms";
    lower "core.cloud_build_ms.hetero" "ms";
    lower "core.sim_attest_ms" "ms";
    lower "audit.append_us" "us";
    lower "audit.receipt_verify_us" "us";
    lower "audit.checkpoint_ms" "ms";
    lower "audit.appends" "count";
    lower "sim.heap_ns" "ns";
    lower "sim.engine_event_ns" "ns";
    lower "fleet.run_ms.d1" "ms";
    lower "fleet.run_ms.d2" "ms";
    lower "fleet.topology_ms" "ms";
    lower "fleet.pqueue_ns" "ns";
    higher "fleet.served" "count";
    lower "fleet.measurements" "count";
    lower "fleet.mon_scheduled" "count";
    higher "fleet.coalesced" "count";
    lower "fleet.epochs" "count";
    higher "fleet.sim_served_rps" "1/s";
    lower "fleet.sim_p99_ms" "ms";
    lower "fleet.sim_detect_ms" "ms";
    higher "fleet.mon_fresh_min" "ratio";
    lower "fuzz.replay_ms" "ms";
    lower "fuzz.replay_build_share" "ratio";
    lower "fuzz.shrink_replays" "count";
    lower "gc.minor_collections_per_op" "count";
    lower "gc.major_collections_per_op" "count";
    lower "gc.promoted_kb_per_op" "KiB";
    lower "trace.spans" "count";
    higher "trace.ops_per_s" "1/s";
  ]

let counter name = Option.value ~default:nan (Hashtbl.find_opt Trace.counters name)

(* Counters of layers a workload may leave idle: zero when not recorded. *)
let idle_zero =
  [
    "core.verdict_cache.hits";
    "core.verdict_cache.misses";
    "core.verdict_cache.invalidations";
    "audit.appends";
  ]
let med name = Meter.median (Trace.durations_ms name)

(* A bulk span's duration divided by its call count, in ns. *)
let per_call_ns name = med name *. 1e6 /. counter (name ^ ".n")

(* [extra] carries figures only the run knows: gc and verify-memo deltas
   over the workload and its traced throughput. *)
let values ~extra =
  let customer = med "core.customer_attest" and controller = med "core.controller_attest" in
  let as_ = med "core.as_attest" in
  let replay = med "fuzz.replay_run" in
  let computed =
    [
      ("crypto.rsa_generate_ms", med "crypto.rsa_generate");
      ("crypto.rsa_generate_kb", Meter.words_to_kb (Meter.median (Trace.words_of "crypto.rsa_generate")));
      ("crypto.rsa_sign_ms", med "crypto.rsa_sign");
      ("crypto.rsa_verify_ms", med "crypto.rsa_verify");
      ("crypto.merkle_root_us", med "crypto.merkle_root" *. 1e3);
      ("tpm.begin_session_ms.classic", med "tpm.begin_session.classic");
      ("tpm.begin_session_ms.evtpm", med "tpm.begin_session.evtpm");
      ("tpm.begin_session_ms.cvm_report", med "tpm.begin_session.cvm");
      ("wire.protocol_roundtrip_us", per_call_ns "wire.protocol_roundtrip" /. 1e3);
      ("monitors.collect_us", per_call_ns "monitors.collect" /. 1e3);
      ("core.customer_attest_ms", customer);
      ("core.controller_attest_ms", controller);
      ("core.as_attest_ms", as_);
      ("core.customer_self_ms", med "core.customer_cache_hit_attest" -. med "core.cache_hit_attest");
      ("core.controller_self_ms", controller -. as_);
      ("core.cache_hit_attest_ms", med "core.cache_hit_attest");
      ("core.attest_many_ms", med "core.attest_many");
      ("core.launch_ms", med "core.launch");
      ("core.terminate_ms", med "core.terminate");
      ("core.migrate_ms", med "core.migrate");
      ("core.cloud_build_ms.classic", med "core.cloud_build.classic");
      ("core.cloud_build_ms.hetero", med "core.cloud_build.hetero");
      ("audit.append_us", med "audit.append" *. 1e3);
      ("audit.receipt_verify_us", med "audit.receipt_verify" *. 1e3);
      ("audit.checkpoint_ms", med "audit.checkpoint");
      ("sim.heap_ns", per_call_ns "sim.heap");
      ("sim.engine_event_ns", per_call_ns "sim.engine_event");
      ("fleet.run_ms.d1", med "fleet.run.d1");
      ("fleet.run_ms.d2", med "fleet.run.d2");
      ("fleet.topology_ms", med "fleet.topology");
      ("fleet.pqueue_ns", per_call_ns "fleet.pqueue");
      ("fuzz.replay_ms", replay);
      ("fuzz.replay_build_share", med "core.cloud_build.hetero" /. replay);
      ("trace.spans", float_of_int (List.length !Trace.spans));
    ]
  in
  List.map
    (fun { name; unit_; _ } ->
      let v =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> (
            match List.assoc_opt name computed with
            | Some v -> v
            | None when List.mem name idle_zero -> Option.value ~default:0. (Hashtbl.find_opt Trace.counters name)
            | None -> counter name)
      in
      (name, v, unit_))
    catalogue
