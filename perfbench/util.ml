(* Clocks, order statistics, memory readings and files shared by the
   workloads. *)

let now = Unix.gettimeofday

(* CPU time the hypervisor has given to other guests, summed over this
   machine's CPUs (the steal column of /proc/stat, in USER_HZ = 1/100 s
   ticks), in seconds; 0 where it cannot be read. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic -> (
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: _user :: _nice :: _system :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ -> (
      match float_of_string_opt steal with Some t -> t /. 100. | None -> 0.)
    | _ -> 0.)

(* The wall clock minus the steal so far: a clock that stops while the
   hypervisor runs other guests.  On a shared host, spells of steal
   lasting minutes stretched the same placement from 10 s to 20 s of
   wall time; an interval of this clock leaves them out.  The placer's
   domains wait on each other, so steal on either CPU stalls the work
   and the whole sum is taken out. *)
let run_clock () = now () -. steal_s ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let sum xs = List.fold_left ( +. ) 0. xs

(* Peak resident set (VmHWM) of a process, in MB, from /proc. *)
let peak_rss_mb pid =
  let file =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ file)
      in
      find ())

(* The major heap's high-water mark so far, in MB. *)
let heap_top_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)

(* Scratch files live under the benchmark's own directory of the
   checkout (the benchmark runs from the checkout root). *)
let work_dir = Filename.concat "perfbench" "_work"

let work_file name =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  Filename.concat work_dir name

let remove_if_exists file = if Sys.file_exists file then Sys.remove file

let file_size file = if Sys.file_exists file then (Unix.stat file).Unix.st_size else 0

let get_ok what = function
  | Ok v -> v
  | Error msg -> failwith (what ^ ": " ^ msg)

(* What one run of a workload measured and found. *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks; empty when correct *)
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
  overhead_s : float option;  (** traced minus untraced [place_s] *)
}

let collector () =
  let problems = ref [] in
  let note = function Ok () -> () | Error e -> problems := e :: !problems in
  (problems, note)

(* Run [round] [min] times, then again while the time left in the
   budget fits one more round as long as the last. *)
let rounds ?(min = 1) ~seconds ~duration round =
  let t0 = now () in
  let rec go acc =
    let r = round () in
    let acc = r :: acc in
    if List.length acc < min || now () -. t0 +. duration r <= seconds then go acc
    else List.rev acc
  in
  go []

