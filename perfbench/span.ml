(* Spans the benchmark records around its own calls into the program:
   name, start, end and the span that caused it.  They stay in memory
   and are written out when the run ends.  Off unless a traced run turns
   them on, so untraced runs pay nothing. *)

type t = { id : int; name : string; parent : int; t0 : float; t1 : float }

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 1
let stack = ref [ 0 ]

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let current () = List.hd !stack

(* [with_ name f] runs [f] inside a span named [name], child of the
   innermost open span. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let id = fresh () and parent = current () in
    stack := id :: !stack;
    let t0 = Util.now () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        recorded := { id; name; parent; t0; t1 = Util.now () } :: !recorded)
      f
  end

(* [add name ~t0 ~t1] records an interval measured by the caller, child
   of the innermost open span, for work that does not nest (jobs in
   flight together). *)
let add name ~t0 ~t1 =
  if !enabled then
    recorded := { id = fresh (); name; parent = current (); t0; t1 } :: !recorded

let spans () = List.rev !recorded

(* Total seconds spent in spans called [name], wherever they sit. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0. !recorded

(* Length of the union of [intervals] clipped to [lo, hi]: children that
   overlap (concurrent jobs) are not counted twice. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest
      | None -> go acc (Some (a, b)) rest)
  in
  go 0. None clipped

type row = {
  path : string;
  count : int;
  total_s : float;
  covered_s : float;  (** part of [total_s] that child spans cover *)
}

(* One row per span path ("run/legalize/abacus"), in first-seen order;
   each row's coverage is by its children's union, span by span. *)
let rows () =
  let all = spans () in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let rec path s =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> path p ^ "/" ^ s.name
    | None -> s.name
  in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.replace children s.parent ((s.t0, s.t1) :: (try Hashtbl.find children s.parent with Not_found -> [])))
    all;
  let order = ref [] and table = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let p = path s in
      let kids = try Hashtbl.find children s.id with Not_found -> [] in
      let cov = covered ~lo:s.t0 ~hi:s.t1 kids in
      match Hashtbl.find_opt table p with
      | None ->
        order := p :: !order;
        Hashtbl.replace table p
          { path = p; count = 1; total_s = s.t1 -. s.t0; covered_s = cov }
      | Some r ->
        Hashtbl.replace table p
          {
            r with
            count = r.count + 1;
            total_s = r.total_s +. (s.t1 -. s.t0);
            covered_s = r.covered_s +. cov;
          })
    (List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) all);
  List.rev_map (Hashtbl.find table) !order

let has_children path = List.exists (fun r -> String.length r.path > String.length path && String.sub r.path 0 (String.length path + 1) = path ^ "/")

let print_table () =
  let rows = rows () in
  Printf.printf "%-44s %5s %10s %10s %9s\n" "span" "n" "total_s" "self_s"
    "coverage";
  List.iter
    (fun r ->
      let cov =
        if has_children r.path rows && r.total_s > 0. then
          Printf.sprintf "%8.1f%%" (100. *. r.covered_s /. r.total_s)
        else "        -"
      in
      Printf.printf "%-44s %5d %10.4f %10.4f %s\n" r.path r.count r.total_s
        (r.total_s -. r.covered_s) cov)
    rows

let write file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ("id", Obs.Json.Num (float_of_int s.id));
                    ("name", Obs.Json.Str s.name);
                    ("parent", Obs.Json.Num (float_of_int s.parent));
                    ("start", Obs.Json.Num s.t0);
                    ("end", Obs.Json.Num s.t1);
                  ]));
          output_char oc '\n')
        (spans ()))
