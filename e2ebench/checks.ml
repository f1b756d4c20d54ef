(* Output checks.  Each judges a program output against ground truth the
   benchmark computed itself (planted malware, lifecycle write times,
   conservation laws) or against a property the method must have
   (1-minimality, determinism) — never against a saved copy of an earlier
   output.  An [Error] names what is wrong. *)

type expect = Healthy | Compromised

let expect_to_string = function Healthy -> "Healthy" | Compromised -> "Compromised"

(* Ground truth for the two integrity properties: hidden malware planted
   after launch compromises runtime integrity and leaves startup integrity
   (platform + image at boot) intact. *)
let expected ~planted ~vid (property : Core.Property.t) =
  match property with
  | Core.Property.Runtime_integrity -> if planted vid then Compromised else Healthy
  | _ -> Healthy

let status_matches expect (status : Core.Report.status) =
  match (expect, status) with
  | Healthy, Core.Report.Healthy -> true
  | Compromised, Core.Report.Compromised _ -> true
  | _ -> false

(* The benchmark verifies every signed verdict itself: the controller's
   RSA signature over the report payload (plain [Rsa.verify], bypassing
   the program's verify memo), the echoed nonce, the bound vid/property
   and the Q1 quote, then the verdict against ground truth. *)
let verdict ~key ~vid ~(property : Core.Property.t) ~nonce ~expect
    (r : Core.Protocol.controller_report) =
  let fail fmt = Printf.ksprintf (fun s -> Error (vid ^ ": " ^ s)) fmt in
  if not (Crypto.Rsa.verify key ~signature:r.signature (Core.Protocol.controller_report_payload r))
  then fail "report signature does not verify under Controller.public_key"
  else if not (String.equal r.nonce nonce) then fail "echoed nonce differs"
  else if not (String.equal r.vid vid && Core.Property.equal r.property property) then
    fail "report bound to another vid/property"
  else if
    not
      (String.equal r.quote
         (Core.Protocol.q1 ~vid:r.vid ~property:r.property ~report:r.report ~nonce:r.nonce))
  then fail "Q1 quote does not bind the report"
  else if not (status_matches expect r.report.Core.Report.status) then
    fail "verdict %s, ground truth %s"
      (Format.asprintf "%a" Core.Report.pp_status r.report.Core.Report.status)
      (expect_to_string expect)
  else Ok ()

(* A verdict served for [vid] must not predate the last lifecycle write on
   that VM: anything produced before the write is a stale cache serve. *)
let fresh ~vid ~last_write (r : Core.Protocol.controller_report) =
  match last_write vid with
  | Some w when r.report.Core.Report.produced_at < w ->
      Error
        (Printf.sprintf "%s: verdict produced at %.3f ms predates lifecycle write at %.3f ms" vid
           (Sim.Time.to_ms r.report.Core.Report.produced_at)
           (Sim.Time.to_ms w))
  | _ -> Ok ()

let receipt ~key ~entry (rc : Audit.Receipt.t) =
  if Audit.Receipt.verify ~key ~entry rc then Ok ()
  else Error (Printf.sprintf "audit receipt for entry %d does not verify" rc.Audit.Receipt.index)

(* Monitored-fleet laws: the probe ledger balances, every VM is tracked
   exactly once, and the planted rack compromise is detected within two
   freshness budgets. *)
let fleet ~budget (r : Fleet.Driver.result) =
  let sheds = r.shed_customer + r.shed_periodic + r.shed_recheck in
  let detect =
    List.find_map
      (fun (s : Fleet.Driver.storm_outcome) ->
        if String.equal s.storm "rack-compromise" then Some (s.at, s.detected_at) else None)
      r.mon_storms
  in
  if r.offered + r.mon_scheduled <> r.served + sheds then
    Error
      (Printf.sprintf "conservation: offered %d + probes %d <> served %d + sheds %d" r.offered
         r.mon_scheduled r.served sheds)
  else if r.mon_entries <> r.config.vms then
    Error (Printf.sprintf "monitor tracks %d VMs of %d" r.mon_entries r.config.vms)
  else if r.mon_entry_dups <> 0 then Error (Printf.sprintf "%d duplicate entries" r.mon_entry_dups)
  else
    match detect with
    | None -> Error "no rack-compromise storm outcome"
    | Some (_, None) -> Error "rack compromise never detected"
    | Some (at, Some d) when d - at > 2 * budget ->
        Error
          (Printf.sprintf "rack compromise detected after %.0f ms, bound %.0f ms"
             (Sim.Time.to_ms (d - at))
             (Sim.Time.to_ms (2 * budget)))
    | Some _ -> Ok ()

let same_fingerprint ~d1 ~d2 =
  if String.equal d1 d2 then Ok ()
  else Error "Driver.fingerprint at domains=2 differs from domains=1"

(* Shrink result: strictly smaller, still failing [oracle] under the
   mutant, clean without it (no oracle at all violated), 1-minimal
   (dropping any single op loses the failure), and replayed twice to the
   same digest.  [replay ~bug s] returns the names of the oracles the
   replay violated and its digest. *)
let shrink ~replay ~oracle ~bug ~(original : Fuzz.Op.scenario) (shrunk : Fuzz.Op.scenario) =
  let fails s = List.mem oracle (fst (replay ~bug s)) in
  let n = List.length shrunk.ops in
  let drop i = { shrunk with Fuzz.Op.ops = List.filteri (fun j _ -> j <> i) shrunk.ops } in
  if n >= List.length original.ops then Error "shrunk scenario is not strictly smaller"
  else
    let violated, digest = replay ~bug shrunk in
    if not (List.mem oracle violated) then Error "shrunk scenario no longer fails under its mutant"
    else
      match (fst (replay ~bug:Fuzz.Replay.No_bug shrunk), List.find_opt (fun i -> fails (drop i)) (List.init n Fun.id)) with
      | v :: _, _ -> Error ("shrunk scenario violates " ^ v ^ " without the mutant")
      | [], Some i -> Error (Printf.sprintf "not 1-minimal: op %d can be dropped" i)
      | [], None ->
          if String.equal digest (snd (replay ~bug shrunk)) then Ok ()
          else Error "double replay digests differ"
