(* Clocks, allocation counters and order statistics shared by every
   workload and by the ladder. *)

let now_ns () = Monotonic_clock.now ()

(* CPU time of the whole process, all domains, user plus system.  The
   kernel accounts it without the time the hypervisor stole from the VM's
   vCPUs, which on a shared host comes in bursts of seconds. *)
let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* Words allocated by the whole program.  [Gc.quick_stat] folds in the
   counters of every domain (joined domains exactly, running ones as of
   their last minor collection), whereas [Gc.minor_words] sees only the
   calling domain — a monitored 10^4-VM fleet run at domains=2 allocates
   almost half of its words on the worker domain. *)
let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words
let alloc_words () = words (Gc.quick_stat ())

let words_to_kb w = w *. float_of_int (Sys.word_size / 8) /. 1024.

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Nearest-rank percentile over an unsorted sample; [nan] when empty. *)
let percentile p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 50. xs

(* A percentile is reported only with at least ten samples beyond it. *)
let tail_ok p n = float_of_int n *. (1. -. (p /. 100.)) >= 10.

(* Run [f] and return its result with the process CPU ms it took. *)
let cpu_ms f =
  let t0 = cpu_s () in
  let x = f () in
  (x, (cpu_s () -. t0) *. 1e3)
