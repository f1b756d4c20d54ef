(* Self-tests of the benchmark's own machinery at smoke size: the
   all-domain allocation counter, and every workload's output check, each
   shown to accept a correct output and to reject a planted wrong one. *)

open E2ebench

let check_ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: rejected a correct output: %s" what e

(* The planted wrong output must be rejected, and for the planted reason. *)
let check_rejects ~because what = function
  | Ok () -> Alcotest.failf "%s: accepted a planted wrong output" what
  | Error e ->
      let n = String.length because in
      let rec has i = i + n <= String.length e && (String.sub e i n = because || has (i + 1)) in
      if not (has 0) then Alcotest.failf "%s: rejected for another reason: %s" what e

(* --- allocation across domains ------------------------------------------- *)

let test_alloc_counts_other_domains () =
  let n = 200_000 in
  let w0 = Meter.alloc_words () in
  let d =
    Domain.spawn (fun () ->
        let keep = ref [] in
        for i = 1 to n do
          keep := [ i ] :: !keep;
          if i mod 1000 = 0 then keep := []
        done)
  in
  Domain.join d;
  let seen = Meter.alloc_words () -. w0 in
  (* two 3-word cons cells per iteration, all on the spawned domain *)
  let expected = float_of_int (6 * n) in
  if seen < expected then
    Alcotest.failf "counter saw %.0f words of the %.0f allocated on a spawned domain" seen expected

(* --- attestation verdicts ------------------------------------------------- *)

let world =
  lazy
    (let w = Workloads.build_cloud ~seed:11 in
     let vids = Workloads.launch_many w 2 in
     let bad = List.hd vids and good = List.nth vids 1 in
     ignore (Workloads.plant w bad : bool);
     (w, good, bad))

let attest (w : Workloads.world) vid property =
  let nonce = Crypto.Drbg.nonce w.drbg in
  match fst (Core.Controller.attest w.ctl { Core.Protocol.vid; property; nonce }) with
  | Ok r -> (r, nonce)
  | Error e -> Alcotest.failf "attest %s: %s" vid e

let verdict (w : Workloads.world) ~vid ~property ~nonce ?(planted = Workloads.planted w) r =
  Checks.verdict ~key:w.key ~vid ~property ~nonce
    ~expect:(Checks.expected ~planted ~vid property)
    r

let test_verdict_checks () =
  let w, good, bad = Lazy.force world in
  let rt = Core.Property.Runtime_integrity in
  let r, nonce = attest w bad rt in
  check_ok "planted VM" (verdict w ~vid:bad ~property:rt ~nonce r);
  let r', nonce' = attest w good rt in
  check_ok "pristine VM" (verdict w ~vid:good ~property:rt ~nonce:nonce' r');
  (* flipped verdict: ground truth says the VM is pristine *)
  check_rejects ~because:"ground truth" "flipped verdict"
    (verdict w ~vid:bad ~property:rt ~nonce ~planted:(fun _ -> false) r);
  (* a status rewritten in transit no longer carries the signature *)
  let flipped = { r with report = { r.report with status = Core.Report.Healthy } } in
  check_rejects ~because:"signature" "rewritten status" (verdict w ~vid:bad ~property:rt ~nonce flipped);
  (* forged signature: the same payload signed by another key *)
  let other = Crypto.Rsa.generate (Crypto.Drbg.create ~seed:"forger") ~bits:512 in
  let forged =
    { r' with signature = Crypto.Rsa.sign other.secret (Core.Protocol.controller_report_payload r') }
  in
  check_rejects ~because:"signature" "forged signature" (verdict w ~vid:good ~property:rt ~nonce:nonce' forged);
  check_rejects ~because:"nonce" "replayed nonce" (verdict w ~vid:good ~property:rt ~nonce r')

(* A planted stale cache serve: the pre-migrate cached verdict is put back
   after the migration (the controller "forgot" to invalidate), so the
   next attestation is served from before the lifecycle write. *)
let test_stale_serve_rejected () =
  let w, good, _ = Lazy.force world in
  let rt = Core.Property.Runtime_integrity in
  Core.Controller.set_verdict_cache_ttl w.ctl (Sim.Time.sec 60);
  let cache = Core.Controller.verdict_cache w.ctl in
  ignore (attest w good rt : Core.Protocol.controller_report * string);
  let snapshot = Option.get (Core.Verdict_cache.find cache ~vid:good ~property:rt) in
  Workloads.note_write w good;
  (match Core.Controller.respond w.ctl Core.Controller.Migrate_vm ~vid:good with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  let last_write = Workloads.last_write w in
  let fresh, _ = attest w good rt in
  check_ok "fresh after migrate" (Checks.fresh ~vid:good ~last_write fresh);
  ignore (Core.Verdict_cache.invalidate_vm cache ~vid:good : int);
  ignore (Core.Verdict_cache.store cache snapshot : bool);
  let stale, _ = attest w good rt in
  check_rejects ~because:"predates" "stale cache serve" (Checks.fresh ~vid:good ~last_write stale);
  Core.Controller.set_verdict_cache_ttl w.ctl 0

let test_receipt_checks () =
  let kp = Crypto.Rsa.generate (Crypto.Drbg.create ~seed:"log") ~bits:512 in
  let log = Audit.Log.create ~log_id:"selftest" ~key:kp.secret () in
  List.iter (fun e -> ignore (Audit.Log.append log e : int)) [ "a"; "b"; "c" ];
  let rc = Audit.Log.append_with_receipt log "d" in
  let key = Audit.Log.public_key log in
  check_ok "receipt" (Checks.receipt ~key ~entry:"d" rc);
  check_rejects ~because:"receipt" "receipt for another entry" (Checks.receipt ~key ~entry:"e" rc);
  let sth = { rc.sth with Audit.Sth.size = rc.sth.size + 1 } in
  check_rejects ~because:"receipt" "forged head" (Checks.receipt ~key ~entry:"d" { rc with sth })

(* --- fleet ---------------------------------------------------------------- *)

let test_fleet_checks () =
  let base, tick, budgets, storm_at, _ = Experiments.Monitor_exp.scenario ~seed:3 `Smoke in
  let budget = List.hd budgets in
  let config domains =
    {
      base with
      Fleet.Driver.domains;
      monitor =
        Some
          (Experiments.Monitor_exp.monitor_of ~tick ~budget
             ~storms:[ Fleet.Monitor.Rack_compromise { at = storm_at; cluster = 0 } ]);
    }
  in
  let r = Fleet.Driver.run (config 2) in
  check_ok "smoke fleet" (Checks.fleet ~budget r);
  check_rejects ~because:"conservation" "broken conservation" (Checks.fleet ~budget { r with served = r.served + 1 });
  check_rejects ~because:"duplicate" "duplicate entry" (Checks.fleet ~budget { r with mon_entry_dups = 1 });
  check_rejects ~because:"tracks" "lost entry" (Checks.fleet ~budget { r with mon_entries = r.mon_entries - 1 });
  check_rejects ~because:"detected after" "late detection" (Checks.fleet ~budget:0 r);
  let d1 = Fleet.Driver.fingerprint (Fleet.Driver.run (config 1)) in
  check_ok "fingerprints" (Checks.same_fingerprint ~d1 ~d2:(Fleet.Driver.fingerprint r));
  check_rejects ~because:"fingerprint" "diverged fingerprint" (Checks.same_fingerprint ~d1 ~d2:(String.make 64 '0'))

(* --- shrink --------------------------------------------------------------- *)

let test_shrink_checks () =
  let bug, oracle, line = List.hd Workloads.mutants in
  let minimal = Option.get (Fuzz.Op.of_string line) in
  let pad tok (s : Fuzz.Op.scenario) = { s with ops = Option.get (Fuzz.Op.op_of_string tok) :: s.ops } in
  let check ~original = Checks.shrink ~replay:Workloads.replay ~oracle ~bug ~original in
  check_ok "1-minimal repro" (check ~original:(pad "b1" minimal) minimal);
  (* one inert pad left in: smaller and still failing, but not 1-minimal *)
  let half = pad "b1" minimal in
  check_rejects ~because:"not 1-minimal" "not 1-minimal" (check ~original:(pad "b0" half) half);
  check_rejects ~because:"not strictly smaller" "not smaller" (check ~original:half half);
  (* a replay that reports another oracle's violation without the mutant *)
  let dirty ~bug s =
    if bug = Fuzz.Replay.No_bug then ([ "audit-consistency" ], "") else Workloads.replay ~bug s
  in
  check_rejects ~because:"without the mutant" "not clean without the mutant"
    (Checks.shrink ~replay:dirty ~oracle ~bug ~original:half minimal)

let () =
  Alcotest.run "e2ebench"
    [
      ("meter", [ Alcotest.test_case "allocation counted across domains" `Quick test_alloc_counts_other_domains ]);
      ( "checks",
        [
          Alcotest.test_case "verdict checks" `Quick test_verdict_checks;
          Alcotest.test_case "stale cache serve rejected" `Quick test_stale_serve_rejected;
          Alcotest.test_case "receipt checks" `Quick test_receipt_checks;
          Alcotest.test_case "fleet checks" `Quick test_fleet_checks;
          Alcotest.test_case "shrink checks" `Quick test_shrink_checks;
        ] );
    ]
