(* e2ebench: one workload per invocation (or [all]), a host block, a
   human-readable table, and as the last line one JSON object with
   [correct], [attempted], [failed] and the metrics: the end-to-end ones
   untraced ([--trace 0]), the per-layer ones traced ([--trace 1]).  A
   traced run also writes its spans to [_build/e2ebench-spans.NAME.tsv],
   relative to the checkout root it is run from. *)

open E2ebench

let usage () =
  prerr_endline
    "usage: main.exe --workload (attest-cold|attest-churn|fleet-monitor|fuzz-shrink|all) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0. ->
      if !workload <> "all" && not (List.mem_assoc !workload Workloads.all) then usage ();
      (!workload, seed, seconds, trace)
  | _ -> usage ()

let spans_path name = Filename.concat "_build" ("e2ebench-spans." ^ name ^ ".tsv")

(* End-to-end metrics: the same five for every workload, each non-zero. *)
let end_to_end (o : Workloads.outcome) =
  let ops = float_of_int (max 1 o.t.attempted) in
  let samples = List.length o.t.op_ms in
  let p50 =
    if Meter.tail_ok 50. samples then Meter.median o.t.op_ms
    else begin
      o.t.errors <- Printf.sprintf "op_p50_ms: %d op samples, fewer than 20" samples :: o.t.errors;
      nan
    end
  in
  [
    ("setup_s", o.setup_s, "s");
    ("ops_per_s", float_of_int o.t.attempted /. o.t.timed_s, "1/s");
    ("op_p50_ms", p50, "ms");
    ("alloc_kb_per_op", Meter.words_to_kb o.t.alloc_words /. ops, "KiB");
    ("peak_heap_mb", Meter.peak_heap_mb (), "MB");
  ]

let per_layer ~seed ~memo0 (o : Workloads.outcome) =
  let ops = float_of_int (max 1 o.t.attempted) in
  let memo = Crypto.Rsa.Memo.shared () in
  let hits0, misses0 = memo0 in
  let traced_ops_per_s = float_of_int o.t.attempted /. o.t.timed_s in
  (* read before the ladder: its fleet runs clear the memo *)
  let memo_hits = Crypto.Rsa.Memo.hits memo - hits0 in
  let memo_misses = Crypto.Rsa.Memo.misses memo - misses0 in
  Ladder.run ~seed;
  o.t.errors <- !Ladder.errors @ o.t.errors;
  Ladder.values
    ~extra:
      [
        ("crypto.verify_memo_hits", float_of_int memo_hits);
        ("crypto.verify_memo_misses", float_of_int memo_misses);
        ("gc.minor_collections_per_op", float_of_int o.t.minor_gcs /. ops);
        ("gc.major_collections_per_op", float_of_int o.t.major_gcs /. ops);
        ("gc.promoted_kb_per_op", Meter.words_to_kb o.t.promoted_words /. ops);
        ("trace.ops_per_s", traced_ops_per_s);
      ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit_) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

let run_one ~name ~seed ~seconds ~trace =
  let f = List.assoc name Workloads.all in
  Trace.reset ();
  Trace.enabled := trace;
  let memo = Crypto.Rsa.Memo.shared () in
  let memo0 = (Crypto.Rsa.Memo.hits memo, Crypto.Rsa.Memo.misses memo) in
  let o : Workloads.outcome = f ~seed ~seconds in
  let metrics = if trace then per_layer ~seed ~memo0 o else end_to_end o in
  if trace then Trace.write_tsv (spans_path name);
  Trace.enabled := false;
  Printf.printf "workload %s seed %d: %d ops attempted, %d failed, %.2f s timed, %d work units\n" name
    seed o.t.attempted o.t.failed o.t.timed_s o.t.work;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.4f %s\n" n v u) (o.info @ metrics);
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) (List.rev o.t.errors);
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let nonzero = trace || List.for_all (fun (_, v, _) -> v > 0.) metrics in
  let correct = o.t.errors = [] && finite && nonzero in
  (correct, o.t.attempted, o.t.failed, metrics)

let () =
  let workload, seed, seconds, trace = args () in
  Host.print_block ~stage:"start";
  let names = if workload = "all" then List.map fst Workloads.all else [ workload ] in
  let results =
    List.map
      (fun name ->
        let ((correct, attempted, failed, metrics) as r) = run_one ~name ~seed ~seconds ~trace in
        if workload = "all" then print_endline (json_line ~correct ~attempted ~failed metrics);
        (name, r))
      names
  in
  Host.print_block ~stage:"end";
  let correct = List.for_all (fun (_, (c, _, _, _)) -> c) results in
  let attempted = List.fold_left (fun a (_, (_, n, _, _)) -> a + n) 0 results in
  let failed = List.fold_left (fun a (_, (_, _, n, _)) -> a + n) 0 results in
  let metrics =
    match results with
    | [ (_, (_, _, _, m)) ] -> m
    | _ -> List.concat_map (fun (name, (_, _, _, m)) -> List.map (fun (n, v, u) -> (name ^ "." ^ n, v, u)) m) results
  in
  print_endline (json_line ~correct ~attempted ~failed metrics)
