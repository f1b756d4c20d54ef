(* In-memory spans recorded around the benchmark's own calls into the
   program.  Off by default: the untraced run pays one branch per call.
   Spans are kept until the end of the run and then summarised or dumped. *)

type span = {
  id : int;
  name : string;  (** e.g. "core.controller_attest" *)
  layer : string;  (** library the call enters: "core", "crypto", ... *)
  op : int;  (** benchmark op the span belongs to (-1 = ladder) *)
  parent : int;  (** enclosing span id, -1 at top level *)
  start_ns : int64;
  end_ns : int64;
  words : float;  (** words allocated inside the span, all domains *)
}

let enabled = ref false
let spans : span list ref = ref [] (* newest first *)
let next_id = ref 0
let current = ref (-1)
let current_op = ref (-1)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let reset () =
  spans := [];
  next_id := 0;
  current := -1;
  current_op := -1;
  Hashtbl.reset counters

let set_op n = current_op := n

let span ~layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let w0 = Meter.alloc_words () in
    let start_ns = Meter.now_ns () in
    let finish () =
      let end_ns = Meter.now_ns () in
      current := parent;
      spans :=
        {
          id;
          name;
          layer;
          op = !current_op;
          parent;
          start_ns;
          end_ns;
          words = Meter.alloc_words () -. w0;
        }
        :: !spans
    in
    match f () with
    | x ->
        finish ();
        x
    | exception e ->
        finish ();
        raise e
  end

(* A counter read from the program's own accessors, recorded by name. *)
let count name v = if !enabled then Hashtbl.replace counters name v

let duration_ms s = Int64.to_float (Int64.sub s.end_ns s.start_ns) *. 1e-6

let durations_ms name =
  List.filter_map (fun s -> if String.equal s.name name then Some (duration_ms s) else None) !spans

let words_of name =
  List.filter_map (fun s -> if String.equal s.name name then Some s.words else None) !spans

(* Tab-separated dump, one span per line, oldest first. *)
let write_tsv path =
  let oc = open_out path in
  output_string oc "id\tname\tlayer\top\tparent\tstart_ns\tend_ns\twords\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%s\t%s\t%d\t%d\t%Ld\t%Ld\t%.0f\n" s.id s.name s.layer s.op s.parent
        s.start_ns s.end_ns s.words)
    (List.rev !spans);
  close_out oc
