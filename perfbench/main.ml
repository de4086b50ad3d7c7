(* The benchmark's entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload for about S seconds, checks the program's outputs,
   and prints as its last line one JSON object: whether every check
   passed, the operations attempted and failed, and the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1).  A traced
   run also prints its span table and tracing overhead, and writes its
   spans to perfbench/_work/. *)

open Perfbench

let end_to_end =
  [
    ("setup_s", "s"); ("place_s", "s"); ("hpwl", "length"); ("peak_rss_mb", "MB");
    ("jobs_per_s", "jobs/s"); ("job_p50_s", "s"); ("routed_overflow", "overflow");
    ("max_delay_ns", "ns");
  ]

let per_layer =
  [
    ("netlist.load_s", "s"); ("kraftwerk.global_s", "s"); ("kraftwerk.iterations", "count");
    ("kraftwerk.ms_per_iter", "ms"); ("kraftwerk.untimed_s", "s"); ("kraftwerk.levels", "count");
    ("kraftwerk.coarse_s", "s"); ("qp.assemble_s", "s"); ("qp.refill_s", "s");
    ("numeric.solve_s", "s"); ("numeric.cg_iterations", "count"); ("numeric.pool_tasks", "count");
    ("density.forces_s", "s"); ("density.kernel_cache_misses", "count"); ("metrics.probe_s", "s");
    ("legalize.ub_probe_s", "s"); ("legalize.abacus_s", "s"); ("legalize.improve_s", "s");
    ("legalize.domino_s", "s"); ("legalize.domino_moves", "count"); ("route.congest_s", "s");
    ("route.grouter_s", "s"); ("timing.sta_s", "s"); ("engine.queue_wait_p50_s", "s");
    ("engine.run_p50_s", "s"); ("engine.busy_frac", "fraction"); ("engine.steals", "count");
    ("engine.slices", "count"); ("engine.max_slice_s", "s"); ("engine.checkpoint_bytes", "bytes");
    ("server.rtt_p50_ms", "ms"); ("server.submit_ack_ms", "ms");
    ("mem.heap_after_load_mb", "MB"); ("mem.heap_after_global_mb", "MB");
    ("mem.heap_after_legalize_mb", "MB");
  ]

(* flat-industry3 and multilevel-d2 are batch placements; serve-mix
   drives a server.  See README.md for why each exists. *)
let workloads =
  [
    ( "flat-industry3",
      Batch.run { Batch.profile = "industry3"; scale = 1.0; multilevel = false; domains = 1; min_rounds = 1 } );
    ( "multilevel-d2",
      Batch.run { Batch.profile = "mega100k"; scale = 0.15; multilevel = true; domains = 2; min_rounds = 2 } );
    ("serve-mix", Serve.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (flat-industry3|multilevel-d2|serve-mix) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run = match List.assoc_opt !workload workloads with Some f -> f | None -> usage () in
  let o = run ~seed:!seed ~seconds:!seconds ~traced:!trace in
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) o.Util.problems;
  let wanted, values = if !trace then (per_layer, o.Util.per_layer) else (end_to_end, o.Util.end_to_end) in
  let finite = ref true in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = match List.assoc_opt name values with Some v -> v | None -> if !trace then 0. else nan in
        if not (Float.is_finite v) then begin
          prerr_endline ("metric " ^ name ^ " is not finite");
          finite := false
        end;
        ( name,
          Obs.Json.Obj
            [ ("value", Obs.Json.Num (if Float.is_finite v then v else 0.)); ("unit", Obs.Json.Str unit) ] ))
      wanted
  in
  if !trace then begin
    print_newline ();
    Span.print_table ();
    (match o.Util.overhead_s with
    | Some d -> Printf.printf "\ntracing overhead (traced minus untraced place_s): %+.4f s\n" d
    | None -> ());
    let file = Util.work_file (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed) in
    Span.write file;
    Printf.printf "spans written to %s\n" file;
    Printf.printf "\n%-30s %16s  %s\n" "per-layer metric" "value" "unit";
    List.iter
      (fun (name, unit) ->
        match List.assoc_opt name values with
        | Some v -> Printf.printf "%-30s %16.6g  %s\n" name v unit
        | None -> Printf.printf "%-30s %16s  %s\n" name "-" unit)
      per_layer
  end;
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (o.Util.problems = [] && !finite));
            ("attempted", Obs.Json.Num (float_of_int o.Util.attempted));
            ("failed", Obs.Json.Num (float_of_int o.Util.failed));
            ("metrics", Obs.Json.Obj metrics);
          ]))
