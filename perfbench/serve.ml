(* The serve-mix workload: a closed loop of short jobs against a real
   [place serve] process over a Unix socket, at most two jobs in flight,
   every served result checked against an in-process solo run. *)

module J = Obs.Json
module Client = Server.Client

let place_exe = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "place.exe"))

type job = {
  label : string;
  spec : Engine.Job.spec;  (** as submitted *)
  reference : Engine.Job.spec option;
      (** the solo run the served result must equal bit for bit; [None]
          for a malformed submit, whose correct outcome is a [bad_spec]
          refusal *)
  after : int option;  (** a job that must finish before this one is submitted *)
}

(* Two malformed circuits that do not depend on the seed.  The program
   admits both today (a NaN width runs to a non-legal "done"; a pin on a
   missing cell fails later with raw exception text), so each counts as
   one failed operation per round until submit-time validation refuses
   them. *)
let malformed_circuits () =
  let write name ~width ~last_pin =
    let file = Util.work_file name in
    let oc = open_out file in
    Printf.fprintf oc
      "circuit bad\nregion 0 0 20 4\nrowheight 1\n\
       cell a 2 1 standard 0 0 1e-10 0\ncell b %s 1 standard 0 0 1e-10 0\n\
       cell c 2 1 standard 0 0 1e-10 0\nnet n0 0:0:0 1:0:0\nnet n1 1:0:0 %d:0:0\n"
      width last_pin;
    close_out oc;
    file
  in
  ( write "nan-width.ckt" ~width:"nan" ~last_pin:2,
    write "missing-cell.ckt" ~width:"2" ~last_pin:7 )

let checkpoints = [ Util.work_file "ck-cut.json"; Util.work_file "ck-full.json" ]

(* The fixed sequence of 24 submits.  Circuits: primary1, struct and
   primary2 from generator seeds 42, 1042 and 2042, relabelled by [seed]
   as the batch workloads relabel theirs; goals: wirelength,
   routability and timing; two jobs keep checkpoints, one of them cut
   after 30 transformations and later resumed; two malformed circuits. *)
let mix ~seed ~traced =
  let a = 42 and b = 1042 and c = 2042 in
  let nan_file, missing_file = malformed_circuits () in
  let ck_cut = List.nth checkpoints 0 and ck_full = List.nth checkpoints 1 in
  let make ?effort ?max_steps ?checkpoint ?(start = Engine.Job.Fresh) ?after ?reference
      label source goal =
    let spec =
      Engine.Job.spec ~source
        ~objective:(Engine.Objective.make ~goal ?effort ())
        ?max_steps ?checkpoint ~checkpoint_every:10 ~start ()
    in
    let reference =
      match reference with
      | Some r -> r
      | None -> Some { spec with Engine.Job.checkpoint = None }
    in
    { label; spec; reference; after }
  in
  let prof name circuit_seed =
    let file = Util.work_file (Printf.sprintf "%s-%d-%d.ckt" name circuit_seed seed) in
    Batch.generate ~profile:name ~scale:1.0 ~circuit_seed ~seed ~file;
    Engine.Source.File file
  in
  let w = Engine.Objective.Wirelength and r = Engine.Objective.Routability
  and t = Engine.Objective.Timing in
  let job label name s goal = make label (prof name s) goal in
  let bad label file = make ~reference:None label (Engine.Source.File file) w in
  let cut = make ~max_steps:30 ~checkpoint:ck_cut "ckpt struct/30" (prof "struct" c) w in
  let jobs =
    [|
      job "wl primary2" "primary2" a w;
      job "rt struct" "struct" a r;
      job "tm primary1" "primary1" a t;
      cut;
      job "rt primary2" "primary2" a r;
      job "wl primary1" "primary1" a w;
      job "tm struct" "struct" a t;
      bad "nan width" nan_file;
      job "wl struct" "struct" a w;
      job "rt primary1" "primary1" a r;
      job "tm primary2" "primary2" a t;
      make ~checkpoint:ck_full "ckpt primary1" (prof "primary1" c) w;
      job "wl primary2" "primary2" b w;
      job "rt struct" "struct" b r;
      job "tm primary1" "primary1" b t;
      (* Resumes job 3 from its checkpoint; it must land exactly on the
         uninterrupted run. *)
      make ~start:(Engine.Job.Resume ck_cut) ~after:3
        ~reference:(Some { cut.spec with Engine.Job.max_steps = None; checkpoint = None })
        "resume struct" (prof "struct" c) w;
      job "rt primary2" "primary2" b r;
      job "wl primary1" "primary1" b w;
      bad "missing cell" missing_file;
      job "tm struct" "struct" b t;
      job "wl struct" "struct" b w;
      job "rt primary1" "primary1" b r;
      job "tm primary2" "primary2" b t;
      make ~effort:3 "wl struct e3" (prof "struct" c) w;
    |]
  in
  (* Traced rounds turn on the engine's per-job trace files; the solo
     references stay untraced. *)
  if traced then
    Array.iteri
      (fun i j ->
        jobs.(i) <-
          { j with spec = { j.spec with Engine.Job.trace = Some (Util.work_file (Printf.sprintf "job-%02d.jsonl" i)) } })
      jobs;
  jobs

type served =
  | Refused of string  (** protocol error code *)
  | Finished of {
      status : string;
      latency : float;  (** wall clock, submit to result *)
      stolen : float;  (** steal during [latency] ({!Util.steal_s}) *)
      result : Engine.Job.result option;
    }

type round = {
  setup_s : float;
  makespan : float;
  outcomes : served option array;
  peak_rss_mb : float;
  metrics : (string * J.t) list;  (** the server's [metrics] response *)
  rtt_ms : float list;
  ack_ms : float list;
  checkpoint_bytes : int;
}

let client_ok what = function
  | Ok v -> v
  | Error f -> failwith (what ^ ": " ^ Client.failure_message f)

let socket = Filename.concat Util.work_dir "serve.sock"

let kill_quietly pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Spawn [place serve] and dial its socket without pausing until it
   answers a first request: the set-up time.  (Client.connect's own
   retries sleep 250 ms between attempts, far coarser than start-up,
   and even a 1 ms pause is a quarter of a 4 ms start-up.) *)
let start_server () =
  Util.remove_if_exists socket;
  let t0 = Util.now () in
  let log = Unix.openfile (Util.work_file "server.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () ->
        Unix.create_process place_exe
          [| place_exe; "serve"; "--listen"; "unix:" ^ socket; "--concurrency"; "2"; "--domains"; "2" |]
          null log log)
  in
  let addr = Server.Address.Unix_path socket in
  let rec dial () =
    match Client.connect addr with
    | Ok c -> c
    | Error msg ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("place serve exited before answering: " ^ msg));
      if Util.now () -. t0 > 60. then failwith ("place serve did not come up: " ^ msg);
      dial ()
  in
  match
    let c = dial () in
    ignore (client_ok "jobs" (Client.jobs c));
    c
  with
  | c -> (pid, c, Util.now () -. t0)
  | exception e ->
    kill_quietly pid;
    raise e

(* Stop a server: a clean shutdown when possible, a kill otherwise, and
   always wait until it has ended. *)
let stop_server ~note pid c =
  let clean =
    match Client.shutdown c with Ok () -> true | Error _ -> false
  in
  Client.close c;
  if not clean then Unix.kill pid Sys.sigkill;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> note (Error "place serve did not exit cleanly")

let setup_only ~note =
  let pid, c, setup_s = start_server () in
  stop_server ~note pid c;
  setup_s

let int_field name v = match J.member name v with Some (J.Num f) -> int_of_float f | _ -> -1

let str_field name v = match J.member name v with Some (J.Str s) -> s | _ -> ""

let round ~note jobs =
  List.iter Util.remove_if_exists checkpoints;
  Span.with_ "round" (fun () ->
      let setup_t0 = Util.now () in
      let pid, req, setup_s = start_server () in
      Span.add "setup" ~t0:setup_t0 ~t1:(Util.now ());
      let stopped = ref false in
      Fun.protect
        ~finally:(fun () -> if not !stopped then kill_quietly pid)
        (fun () ->
          let ev =
            match Client.connect (Server.Address.Unix_path socket) with
            | Ok c -> c
            | Error msg -> failwith msg
          in
          client_ok "subscribe" (Client.subscribe ev);
          let n = Array.length jobs in
          let outcomes = Array.make n None in
          let inflight = Hashtbl.create 4 in
          (* [first] and [last] are on the run clock; [deadline] on the wall. *)
          let next = ref 0 and first = ref nan and last = ref nan in
          let deadline = Util.now () +. 120. in
          let rtt = ref [] and acks = ref [] in
          let ready i =
            match jobs.(i).after with Some j -> outcomes.(j) <> None | None -> true
          in
          let rec loop () =
            while Hashtbl.length inflight < 2 && !next < n && ready !next do
              let i = !next in
              incr next;
              let t0 = Util.now () and s0 = Util.steal_s () in
              if Float.is_nan !first then first := t0 -. s0;
              let res = Client.submit req jobs.(i).spec in
              let t1 = Util.now () in
              Span.add "submit" ~t0 ~t1;
              acks := (1000. *. (t1 -. t0)) :: !acks;
              match res with
              | Ok id -> Hashtbl.replace inflight id (i, t0, s0)
              | Error (Client.Refused e) ->
                outcomes.(i) <- Some (Refused (Engine.Protocol.code_to_string e.Engine.Protocol.code));
                last := Util.run_clock ()
              | Error (Client.Transport m) -> failwith ("submit: " ^ m)
            done;
            if Hashtbl.length inflight > 0 then begin
              (* A run must end within 180 s; fail well before that
                 rather than wait on a job that never finishes. *)
              if Util.now () > deadline then failwith "serve-mix: jobs still running after 120 s";
              (match client_ok "events" (Client.next_event ~timeout_s:1.0 ev) with
              | Some e when str_field "event" e = "finished" -> (
                let id = int_field "id" e in
                match Hashtbl.find_opt inflight id with
                | Some (i, t0, s0) ->
                  let t1 = Util.now () and s1 = Util.steal_s () in
                  Hashtbl.remove inflight id;
                  last := t1 -. s1;
                  Span.add "job" ~t0 ~t1;
                  (* A status round trip between waits: the server's
                     request latency while jobs run. *)
                  let _, dt = Util.timed (fun () -> client_ok "status" (Client.status req id)) in
                  Span.add "status" ~t0:t1 ~t1:(t1 +. dt);
                  rtt := (1000. *. dt) :: !rtt;
                  let result =
                    match Client.job_result req id with
                    | Ok r -> Result.to_option (Engine.Job.result_of_json r)
                    | Error _ -> None
                  in
                  outcomes.(i) <-
                    Some
                      (Finished
                         { status = str_field "status" e; latency = t1 -. t0; stolen = s1 -. s0; result })
                | None -> ())
              | _ -> ());
              loop ()
            end
            else if !next < n then failwith "serve-mix: a submit waits on a job that never ran"
          in
          loop ();
          let makespan = !last -. !first in
          Printf.eprintf "round: makespan %.3f s on the run clock, start-up %.4f s\n%!" makespan setup_s;
          let metrics = client_ok "metrics" (Client.metrics req) in
          let peak_rss_mb = Util.peak_rss_mb (Some pid) in
          let checkpoint_bytes =
            List.fold_left (fun acc f -> acc + Util.file_size f) 0 checkpoints
          in
          Client.close ev;
          stopped := true;
          stop_server ~note pid req;
          { setup_s; makespan; outcomes; peak_rss_mb; metrics; rtt_ms = !rtt; ack_ms = !acks; checkpoint_bytes }))

(* An operation failed unless a valid job finished [done] and legal, or
   a malformed one was refused as [bad_spec]. *)
let ok_outcome (j : job) = function
  | Some (Refused code) -> j.reference = None && code = "bad_spec"
  | Some (Finished { status = "done"; result = Some r; _ }) ->
    j.reference <> None && r.Engine.Job.legal
  | _ -> false

let solo spec =
  let sched = Engine.Scheduler.create ~concurrency:1 ~domains:1 () in
  let id = Engine.Scheduler.submit sched spec in
  Engine.Scheduler.drain sched;
  (Engine.Scheduler.result sched id, Engine.Scheduler.legalized sched id)

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_opt a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> same_bits x y
  | _ -> false

type checked = { hpwl_wl : float; routed : float; delay_ns : float }

let replayed (j : job) = function
  | Some (Finished { status = "done"; result = Some _; _ }) -> j.reference
  | _ -> None

(* The solo replays of every valid job that finished, two at a time on
   two domains.  Each is still a one-lane scheduler running one job
   alone. *)
let replay_all jobs (r : round) =
  let todo =
    List.filter_map
      (fun i -> Option.map (fun spec -> (i, spec)) (replayed jobs.(i) r.outcomes.(i)))
      (List.init (Array.length jobs) Fun.id)
  in
  let out = Array.make (Array.length jobs) (None, None) in
  let lane k () =
    List.iteri (fun n (i, spec) -> if n mod 2 = k then out.(i) <- solo spec) todo
  in
  let other = Domain.spawn (lane 1) in
  lane 0 ();
  Domain.join other;
  out

(* Replays every valid job solo in-process, compares each served result
   with it bit for bit, and checks the replayed placement independently.
   Returns the sums the end-to-end metrics report. *)
let verify ~seed ~note jobs (r : round) =
  let goal (s : Engine.Job.spec) = s.Engine.Job.objective.Engine.Objective.goal in
  let acc = ref { hpwl_wl = 0.; routed = 0.; delay_ns = 0. } in
  Span.with_ "verify" (fun () ->
      let replays = Span.with_ "replay" (fun () -> replay_all jobs r) in
      Array.iteri
        (fun i (j : job) ->
          match (j.reference, r.outcomes.(i)) with
          | Some ref_spec, Some (Finished { status = "done"; result = Some served; _ }) -> (
            match replays.(i) with
            | Some s, Some p ->
              let bad what = note (Error (Printf.sprintf "job %d (%s): %s" i j.label what)) in
              if not (same_bits served.Engine.Job.hpwl s.Engine.Job.hpwl) then bad "served HPWL differs from the solo run";
              if served.Engine.Job.iterations <> s.Engine.Job.iterations then bad "served iterations differ from the solo run";
              if
                not
                  (same_opt served.Engine.Job.routed_overflow s.Engine.Job.routed_overflow
                  && same_opt served.Engine.Job.routed_max_overflow s.Engine.Job.routed_max_overflow
                  && same_opt served.Engine.Job.routed_wirelength s.Engine.Job.routed_wirelength)
              then bad "served routed figures differ from the solo run";
              let c, p0 = Util.get_ok "load" (Engine.Source.load ref_spec.Engine.Job.source) in
              (match
                 Span.with_ "checks" (fun () ->
                     Check.placement ~seed:(seed + i) ~reported_hpwl:served.Engine.Job.hpwl c ~initial:p0 p)
               with
              | Ok () -> ()
              | Error e -> bad e);
              (match goal ref_spec with
              | Engine.Objective.Wirelength -> acc := { !acc with hpwl_wl = !acc.hpwl_wl +. served.Engine.Job.hpwl }
              | Engine.Objective.Routability -> (
                let spec = Kraftwerk.Placer.route_spec (Engine.Job.config_of_spec ref_spec) c in
                match Span.with_ "grouter" (fun () -> Route.Grouter.route c p spec) with
                | Ok g ->
                  (match Check.routed ~total:g.Route.Grouter.total_overflow ~max:g.Route.Grouter.max_overflow with
                  | Ok () -> ()
                  | Error e -> bad e);
                  if not (same_opt served.Engine.Job.routed_overflow (Some g.Route.Grouter.total_overflow)) then
                    bad "served routed overflow differs from routing the solo placement";
                  acc := { !acc with routed = !acc.routed +. g.Route.Grouter.total_overflow }
                | Error e -> bad (Route.Grid_spec.error_message e))
              | Engine.Objective.Timing ->
                let params = Timing.Params.default in
                let sta = Span.with_ "sta" (fun () -> Timing.Sta.analyse params c p) in
                (match Check.sta_bound ~max_delay:sta.Timing.Sta.max_delay ~lower_bound:(Timing.Sta.lower_bound params c) with
                | Ok () -> ()
                | Error e -> bad e);
                acc := { !acc with delay_ns = !acc.delay_ns +. (sta.Timing.Sta.max_delay *. 1e9) })
            | _ -> note (Error (Printf.sprintf "job %d (%s): the solo run produced no result" i j.label)))
          | _ -> ())
        jobs);
  !acc

(* The server's registry snapshot, read back from its [metrics] reply. *)
let registry (r : round) =
  match List.assoc_opt "metrics" r.metrics with
  | Some (J.Obj cells) ->
    List.map
      (fun (name, v) ->
        let num k = match J.member k v with Some (J.Num f) -> f | _ -> 0. in
        (name, { Obs.Stat.zero with Obs.Stat.count = int_of_float (num "count"); total = num "total" }))
      cells
  | _ -> []

let shard_rows (r : round) =
  match List.assoc_opt "scheduler" r.metrics with
  | Some s -> ( match J.member "per_shard" s with Some (J.Arr rows) -> rows | _ -> [])
  | None -> []

let layers (r : round) jobs =
  let reg = registry r in
  let total name = Batch.total name reg in
  let timed = Util.sum (List.map total Batch.phases) in
  let results =
    List.filter_map
      (fun i ->
        match r.outcomes.(i) with
        | Some (Finished { latency; result = Some res; _ }) when ok_outcome jobs.(i) r.outcomes.(i) -> Some (latency, res)
        | _ -> None)
      (List.init (Array.length jobs) Fun.id)
  in
  let shard k = List.map (fun row -> match J.member k row with Some (J.Num f) -> f | _ -> 0.) (shard_rows r) in
  let slices = total "sched/slice_s" in
  let iterations = Util.sum (List.map (fun (_, res) -> float_of_int res.Engine.Job.iterations) results) in
  [
    ("kraftwerk.global_s", slices);
    ("kraftwerk.iterations", iterations);
    ("kraftwerk.ms_per_iter", 1000. *. slices /. Float.max 1. iterations);
    ("kraftwerk.untimed_s", slices -. timed);
    ("qp.assemble_s", total "placer/assemble");
    ("qp.refill_s", total "qp/refill");
    ("numeric.solve_s", total "placer/solve");
    ("numeric.cg_iterations", total "cg/iterations");
    ("numeric.pool_tasks", total "pool/tasks");
    ("density.forces_s", total "placer/density");
    ("density.kernel_cache_misses", total "poisson/kernel_cache_misses");
    ("metrics.probe_s", total "placer/metrics");
    ("legalize.ub_probe_s", total "placer/legalize");
    ("legalize.domino_moves", Util.sum (List.map (fun (_, res) -> float_of_int res.Engine.Job.domino_moves) results));
    ("route.congest_s", total "placer/congest" +. total "placer/congest_legalize");
    ("route.grouter_s", Span.total "grouter");
    ("timing.sta_s", Span.total "sta");
    ("engine.queue_wait_p50_s", Util.median (List.map (fun (l, res) -> l -. res.Engine.Job.wall_s) results));
    ("engine.run_p50_s", Util.median (List.map (fun (_, res) -> res.Engine.Job.wall_s) results));
    ("engine.busy_frac", Util.sum (shard "busy_frac") /. float_of_int (max 1 (List.length (shard_rows r))));
    ("engine.steals", Util.sum (shard "steals"));
    ("engine.slices", Util.sum (shard "slices"));
    ("engine.max_slice_s", List.fold_left Float.max 0. (shard "max_slice_s"));
    ("engine.checkpoint_bytes", float_of_int r.checkpoint_bytes);
    ("server.rtt_p50_ms", Util.median r.rtt_ms);
    ("server.submit_ack_ms", Util.median r.ack_ms);
  ]

let run ~seed ~seconds ~traced =
  let problems, note = Util.collector () in
  if not (Sys.file_exists place_exe) then failwith (place_exe ^ " is not built");
  let setups, setups_s = Util.timed (fun () -> List.init 99 (fun _ -> setup_only ~note)) in
  Printf.eprintf "%d start-ups in %.2f s: median %.5f s\n%!" (List.length setups) setups_s
    (Util.median setups);
  let rounds, overhead_s =
    if traced then begin
      (* As in the batch workloads: traced round first, then an
         untraced one for the overhead. *)
      Span.enabled := true;
      let jobs = mix ~seed ~traced:true in
      let r = round ~note jobs in
      Span.enabled := false;
      let plain = round ~note (mix ~seed ~traced:false) in
      Span.enabled := true;
      ([ (jobs, r); (jobs, plain) ], Some (r.makespan -. plain.makespan))
    end
    else
      ( Util.rounds ~seconds
          ~duration:(fun (_, r) -> r.makespan)
          (fun () ->
            let jobs = mix ~seed ~traced:false in
            (jobs, round ~note jobs)),
        None )
  in
  let jobs, first = List.hd rounds in
  let sums = verify ~seed ~note jobs first in
  (* Later rounds must reproduce the first round's served results. *)
  List.iter
    (fun (_, (r : round)) ->
      Array.iteri
        (fun i o ->
          match (o, first.outcomes.(i)) with
          | Some (Finished { result = Some a; _ }), Some (Finished { result = Some b; _ }) ->
            if not (same_bits a.Engine.Job.hpwl b.Engine.Job.hpwl && a.Engine.Job.iterations = b.Engine.Job.iterations) then
              note (Error (Printf.sprintf "job %d (%s) differs between rounds" i jobs.(i).label))
          | _ -> ())
        r.outcomes)
    (List.tl rounds);
  let describe = function
    | Some (Refused code) -> "refused " ^ code
    | Some (Finished { status; result = Some r; _ }) ->
      Printf.sprintf "%s, legal %b" status r.Engine.Job.legal
    | Some (Finished { status; _ }) -> status ^ ", no result"
    | None -> "no outcome"
  in
  Array.iteri
    (fun i o ->
      if not (ok_outcome jobs.(i) o) then
        Printf.eprintf "failed operation: job %d (%s): %s\n%!" i jobs.(i).label (describe o))
    first.outcomes;
  let ok = List.map (fun (jobs, r) -> Array.mapi (fun i o -> ok_outcome jobs.(i) o) r.outcomes) rounds in
  let failed = List.fold_left (fun acc a -> Array.fold_left (fun acc b -> if b then acc else acc + 1) acc a) 0 ok in
  let valid_done (jobs, r) =
    List.filter_map
      (fun i ->
        match r.outcomes.(i) with
        | Some (Finished { latency; stolen; _ }) when jobs.(i).reference <> None && ok_outcome jobs.(i) r.outcomes.(i) ->
          Some (latency -. stolen)
        | _ -> None)
      (List.init (Array.length jobs) Fun.id)
  in
  let makespans = List.map (fun (_, r) -> r.makespan) rounds in
  {
    Util.attempted = List.fold_left (fun acc (jobs, _) -> acc + Array.length jobs) 0 rounds;
    failed;
    problems = !problems;
    end_to_end =
      [
        ("setup_s", Util.median (setups @ List.map (fun (_, r) -> r.setup_s) rounds));
        ("place_s", Util.median makespans);
        ("hpwl", sums.hpwl_wl);
        ("peak_rss_mb", List.fold_left (fun m (_, r) -> Float.max m r.peak_rss_mb) 0. rounds);
        ( "jobs_per_s",
          Util.median (List.map (fun ((_, r) as jr) -> float_of_int (List.length (valid_done jr)) /. r.makespan) rounds) );
        ("job_p50_s", Util.median (List.concat_map valid_done rounds));
        ("routed_overflow", sums.routed);
        ("max_delay_ns", sums.delay_ns);
      ];
    per_layer = layers first jobs;
    overhead_s;
  }
