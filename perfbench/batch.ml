(* The batch workloads: the calls [place run] makes, from circuit files
   on disk to a legal final placement, made in-process so each layer can
   be timed from outside. *)

type t = {
  profile : string;
  scale : float;
  multilevel : bool;  (** the V-cycle ([--flow multilevel]) instead of the flat loop *)
  domains : int;
  min_rounds : int;  (** placements per run, whatever the time budget *)
}

(* The configuration [place run] derives: wirelength goal, standard
   effort, the workload's domain count. *)
let config w =
  let obj =
    Engine.Objective.make ~goal:Engine.Objective.Wirelength
      ~mode:Engine.Objective.Standard ()
  in
  { (Engine.Objective.config obj) with Kraftwerk.Config.domains = Some w.domains }

(* One circuit of a profile, its cells and nets listed in an order
   drawn from [seed].  Circuits drawn from different generator seeds
   need from 131 to 181 transformations on industry3, a wider spread
   than any usable bound; a relabelled circuit asks the same placement
   question of every run while the program still sees seed-dependent
   input files. *)
let relabel ~seed (c : Netlist.Circuit.t) (p : Netlist.Placement.t) =
  let rng = Random.State.make [| seed |] in
  let shuffled n =
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  (* [order.(k)] is the old index of new cell [k]. *)
  let order = shuffled (Netlist.Circuit.num_cells c) in
  let new_id = Array.make (Array.length order) 0 in
  Array.iteri (fun k old -> new_id.(old) <- k) order;
  let cells =
    Array.mapi (fun k old -> { c.Netlist.Circuit.cells.(old) with Netlist.Cell.id = k }) order
  in
  let nets =
    Array.mapi
      (fun k old ->
        let n = c.Netlist.Circuit.nets.(old) in
        {
          n with
          Netlist.Net.id = k;
          pins =
            Array.map
              (fun (q : Netlist.Net.pin) -> { q with Netlist.Net.cell = new_id.(q.Netlist.Net.cell) })
              n.Netlist.Net.pins;
        })
      (shuffled (Netlist.Circuit.num_nets c))
  in
  let c' =
    Netlist.Circuit.make ~name:c.Netlist.Circuit.name ~cells ~nets
      ~region:c.Netlist.Circuit.region ~row_height:c.Netlist.Circuit.row_height
  in
  let pick a = Array.map (fun old -> a.(old)) order in
  (c', { Netlist.Placement.x = pick p.Netlist.Placement.x; y = pick p.Netlist.Placement.y })

(* The circuit and initial placement files, written the way
   [place generate] writes them. *)
let generate ~profile ~scale ~circuit_seed ~seed ~file =
  let prof = Circuitgen.Profiles.find profile in
  let c, fixed =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale prof ~seed:circuit_seed)
  in
  let c, p = relabel ~seed c (Circuitgen.Gen.initial_placement c fixed) in
  Netlist.Io.save_circuit file c;
  Netlist.Io.save_placement (file ^ ".pos") p

let load file =
  let ok = function
    | Ok v -> v
    | Error e -> failwith (Netlist.Io.error_message e)
  in
  let c = ok (Netlist.Io.load_circuit file) in
  let p =
    ok (Netlist.Io.load_placement (file ^ ".pos") ~num_cells:(Netlist.Circuit.num_cells c))
  in
  (c, p)

let fixed_positions (c : Netlist.Circuit.t) (p : Netlist.Placement.t) =
  Array.to_list c.Netlist.Circuit.cells
  |> List.filter_map (fun (cl : Netlist.Cell.t) ->
         if cl.Netlist.Cell.fixed then
           let i = cl.Netlist.Cell.id in
           Some (i, (p.Netlist.Placement.x.(i), p.Netlist.Placement.y.(i)))
         else None)

(* A V-cycle's [iterations], [levels] and [coarse_s] are read from its
   telemetry, so only traced rounds count them. *)
type global = {
  placement : Netlist.Placement.t;
  iterations : int;
  levels : int;
  coarse_s : float;  (** coarsening plus every transformation above level 0 *)
}

(* [Kraftwerk.Placer.run], with one span per transformation taken
   between [on_step] calls; the first also holds [Placer.init]. *)
let flat config c p0 =
  let iterations = ref 0 and last = ref (Util.now ()) in
  let on_step _ =
    incr iterations;
    let t = Util.now () in
    Span.add "step" ~t0:!last ~t1:t;
    last := t
  in
  let hooks = { Kraftwerk.Placer.no_hooks with Kraftwerk.Placer.on_step = Some on_step } in
  let state, _ = Kraftwerk.Placer.run ~hooks config c p0 in
  { placement = state.Kraftwerk.Placer.placement; iterations = !iterations; levels = 0; coarse_s = 0. }

(* [Kraftwerk.Cluster.place_multilevel].  A traced round also listens
   to the telemetry record each transformation emits, which carries its
   V-cycle level, and times one span per level from their arrival; the
   coarsest level's span also holds the coarsening. *)
let vcycle config c p0 =
  let iterations = ref 0 and levels = ref 0 and coarse_s = ref 0. in
  let last = ref (Util.now ()) and level = ref None in
  let close_level t1 =
    Option.iter (fun (l, ls) -> Span.add (Printf.sprintf "level%d" l) ~t0:ls ~t1) !level
  in
  let on_iteration (it : Obs.Telemetry.iteration) =
    let t = Util.now () and l = it.Obs.Telemetry.level in
    incr iterations;
    levels := max !levels l;
    if l > 0 then coarse_s := !coarse_s +. (t -. !last);
    if Option.map fst !level <> Some l then begin
      close_level !last;
      level := Some (l, !last)
    end;
    last := t
  in
  let place () =
    Kraftwerk.Cluster.place_multilevel config c ~fixed_positions:(fixed_positions c p0) p0
  in
  let placement =
    if !Span.enabled then
      Obs.Sink.with_sink { Obs.Sink.on_iteration; on_summary = ignore } place
    else place ()
  in
  close_level (Util.now ());
  { placement; iterations = !iterations; levels = !levels; coarse_s = !coarse_s }

type round = {
  circuit : Netlist.Circuit.t;
  initial : Netlist.Placement.t;
  final : Netlist.Placement.t;
  hpwl : float;  (** the program's own value *)
  load_s : float;
  place_s : float;  (** loaded circuit to legal final placement *)
  global_s : float;
  global : global;
  domino_moves : int;
  heap_after : float * float * float;  (** load, global, legalize (MB) *)
  registry : (string * Obs.Stat.t) list;
}

let round w config ~file =
  Span.with_ "round" (fun () ->
      let (c, p0), load_s = Util.timed (fun () -> Span.with_ "load" (fun () -> load file)) in
      let heap_load = Util.heap_top_mb () in
      let t0 = Util.run_clock () and wall0 = Util.now () in
      let g, global_s =
        Util.timed (fun () ->
            Span.with_ "global" (fun () ->
                if w.multilevel then vcycle config c p0 else flat config c p0))
      in
      let heap_global = Util.heap_top_mb () in
      let final, domino_moves =
        Span.with_ "legalize" (fun () ->
            let rep =
              Span.with_ "abacus" (fun () -> Legalize.Abacus.legalize c g.placement ())
            in
            let lp = rep.Legalize.Abacus.placement in
            ignore (Span.with_ "improve" (fun () -> Legalize.Improve.run c lp));
            let moves, _ = Span.with_ "domino" (fun () -> Legalize.Domino.run c lp) in
            (lp, moves))
      in
      let place_s = Util.run_clock () -. t0 in
      Printf.eprintf "round: place_s %.3f (wall %.3f)\n%!" place_s (Util.now () -. wall0);
      {
        circuit = c;
        initial = p0;
        final;
        hpwl = Metrics.Wirelength.hpwl c final;
        load_s;
        place_s;
        global_s;
        global = g;
        domino_moves;
        heap_after = (heap_load, heap_global, Util.heap_top_mb ());
        registry = Obs.Registry.snapshot ();
      })

type validation = { routed_overflow : float; max_delay_ns : float }

(* Every check runs on the first round's output; later rounds of the
   same circuit must reproduce its HPWL bit for bit. *)
let validate ~seed ~note (r : round) rounds =
  Span.with_ "validate" (fun () ->
      note (Span.with_ "checks" (fun () ->
                Check.placement ~seed ~reported_hpwl:r.hpwl r.circuit ~initial:r.initial r.final));
      List.iter
        (fun (o : round) ->
          if Int64.bits_of_float o.hpwl <> Int64.bits_of_float r.hpwl then
            note (Error "rounds of one circuit disagree on HPWL"))
        rounds;
      (* The grid a routability job is validated on.  The batch
         workloads report the estimator's overflow there: the global
         router takes over a minute on these circuits (README.md). *)
      let rconfig =
        Engine.Objective.config (Engine.Objective.make ~goal:Engine.Objective.Routability ())
      in
      let routed_overflow =
        match
          Span.with_ "congest" (fun () ->
              Route.Congest.estimate r.circuit r.final (Kraftwerk.Placer.route_spec rconfig r.circuit))
        with
        | Ok g ->
          note (Check.routed ~total:g.Route.Congest.total_overflow ~max:g.Route.Congest.max_overflow);
          g.Route.Congest.total_overflow
        | Error e ->
          note (Error (Route.Grid_spec.error_message e));
          nan
      in
      let params = Timing.Params.default in
      let sta = Span.with_ "sta" (fun () -> Timing.Sta.analyse params r.circuit r.final) in
      note
        (Check.sta_bound ~max_delay:sta.Timing.Sta.max_delay
           ~lower_bound:(Timing.Sta.lower_bound params r.circuit));
      { routed_overflow; max_delay_ns = sta.Timing.Sta.max_delay *. 1e9 })

let stat name reg =
  match List.assoc_opt name reg with Some s -> s | None -> Obs.Stat.zero

let total name reg = (stat name reg).Obs.Stat.total

(* The program's own phase timers inside the global-placement loop. *)
let phases =
  [ "placer/assemble"; "placer/density"; "placer/solve"; "placer/metrics";
    "placer/legalize"; "placer/congest_legalize"; "placer/congest" ]

let print_phases (r : round) =
  let timed = Util.sum (List.map (fun p -> total p r.registry) phases) in
  Printf.printf "\nglobal placement %.4f s, covered by the program's phase timers:\n" r.global_s;
  List.iter
    (fun p -> Printf.printf "  %-28s %10.4f s %6.1f%%\n" p (total p r.registry)
                (100. *. total p r.registry /. r.global_s))
    phases;
  Printf.printf "  %-28s %10.4f s %6.1f%%\n" "(untimed)" (r.global_s -. timed)
    (100. *. (r.global_s -. timed) /. r.global_s)

(* Per-layer figures of one traced round. *)
let layers (r : round) ~load_s ~sta_s =
  let reg = r.registry in
  let timed = Util.sum (List.map (fun p -> total p reg) phases) in
  let h_load, h_global, h_legalize = r.heap_after in
  [
    ("netlist.load_s", load_s);
    ("kraftwerk.global_s", r.global_s);
    ("kraftwerk.iterations", float_of_int r.global.iterations);
    ("kraftwerk.ms_per_iter", 1000. *. r.global_s /. float_of_int (max 1 r.global.iterations));
    ("kraftwerk.untimed_s", r.global_s -. timed);
    ("kraftwerk.levels", float_of_int r.global.levels);
    ("kraftwerk.coarse_s", r.global.coarse_s);
    ("qp.assemble_s", total "placer/assemble" reg);
    ("qp.refill_s", total "qp/refill" reg);
    ("numeric.solve_s", total "placer/solve" reg);
    ("numeric.cg_iterations", total "cg/iterations" reg);
    ("numeric.pool_tasks", total "pool/tasks" reg);
    ("density.forces_s", total "placer/density" reg);
    ("density.kernel_cache_misses", total "poisson/kernel_cache_misses" reg);
    ("metrics.probe_s", total "placer/metrics" reg);
    ("legalize.ub_probe_s", total "placer/legalize" reg);
    ("legalize.abacus_s", Span.total "abacus");
    ("legalize.improve_s", Span.total "improve");
    ("legalize.domino_s", Span.total "domino");
    ("legalize.domino_moves", float_of_int r.domino_moves);
    ( "route.congest_s",
      total "placer/congest" reg +. total "placer/congest_legalize" reg +. Span.total "congest" );
    ("timing.sta_s", sta_s);
    ("mem.heap_after_load_mb", h_load);
    ("mem.heap_after_global_mb", h_global);
    ("mem.heap_after_legalize_mb", h_legalize);
  ]

let run w ~seed ~seconds ~traced =
  let problems, note = Util.collector () in
  let file = Util.work_file (Printf.sprintf "%s-%d.ckt" w.profile seed) in
  let (), gen_s =
    Util.timed (fun () ->
        generate ~profile:w.profile ~scale:w.scale ~circuit_seed:42 ~seed ~file)
  in
  Printf.eprintf "generated %s in %.2f s\n%!" file gen_s;
  let config = config w in
  let setup = List.init 9 (fun _ -> snd (Util.timed (fun () -> ignore (load file)))) in
  Printf.eprintf "9 loads: median %.4f s\n%!" (Util.median setup);
  let rounds, overhead_s =
    if traced then begin
      (* The traced round comes first, so it meets the cold caches and
         empty heap an untraced run meets; the untraced round after it
         gives the overhead. *)
      Span.enabled := true;
      Obs.Registry.set_enabled true;
      Obs.Registry.reset ();
      let r = round w config ~file in
      Obs.Registry.set_enabled false;
      Span.enabled := false;
      let plain = round w config ~file in
      Span.enabled := true;
      ([ r; plain ], Some (r.place_s -. plain.place_s))
    end
    else
      (Util.rounds ~min:w.min_rounds ~seconds ~duration:(fun r -> r.load_s +. r.place_s) (fun () -> round w config ~file), None)
  in
  (* Read before verification, so the checks do not count. *)
  let peak_rss_mb = Util.peak_rss_mb None in
  let first = List.hd rounds in
  let v, validate_s = Util.timed (fun () -> validate ~seed ~note first rounds) in
  Printf.eprintf "%d round(s), validated in %.2f s\n%!" (List.length rounds) validate_s;
  Numeric.Parallel.shutdown ();
  let jobs = List.map (fun r -> r.load_s +. r.place_s) rounds in
  let setup_s = Util.median (setup @ List.map (fun r -> r.load_s) rounds) in
  if traced then print_phases first;
  {
    Util.attempted = List.length rounds;
    failed = 0;
    problems = !problems;
    end_to_end =
      [
        ("setup_s", setup_s);
        ("place_s", Util.median (List.map (fun r -> r.place_s) rounds));
        ("hpwl", first.hpwl);
        ("peak_rss_mb", peak_rss_mb);
        ("jobs_per_s", float_of_int (List.length rounds) /. Util.sum jobs);
        ("job_p50_s", Util.median jobs);
        ("routed_overflow", v.routed_overflow);
        ("max_delay_ns", v.max_delay_ns);
      ];
    per_layer =
      layers first ~load_s:setup_s ~sta_s:(Span.total "sta");
    overhead_s;
  }
