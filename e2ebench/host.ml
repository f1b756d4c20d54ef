(* Host block printed by every run, so two disagreeing runs can be
   explained after the fact. *)

let read_first_line path =
  match open_in path with
  | exception Sys_error _ -> "n/a"
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      line

let cpu_count () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> 0
  | ic ->
      let n = ref 0 in
      (try
         while true do
           let l = input_line ic in
           if String.length l >= 9 && String.sub l 0 9 = "processor" then incr n
         done
       with End_of_file -> ());
      close_in ic;
      !n

let loadavg () = read_first_line "/proc/loadavg"

let print_block ~stage =
  Printf.printf "host.%s cpus=%d recommended_domains=%d ocaml=%s OCAMLRUNPARAM=%s loadavg=%s\n%!"
    stage (cpu_count ()) (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))
    (loadavg ())
