(* Output checks written apart from the program: none of them calls the
   program's own legality checker or wire-length code, so a fault there
   cannot hide a fault in the placement.  Each returns [Error reason]
   on the first violation it finds. *)

module C = Netlist.Circuit
module R = Geometry.Rect

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let ( let* ) = Result.bind

let finite_coords (c : C.t) (p : Netlist.Placement.t) =
  let bad = ref None in
  Array.iteri
    (fun i (_ : Netlist.Cell.t) ->
      if
        !bad = None
        && not (Float.is_finite p.Netlist.Placement.x.(i)
               && Float.is_finite p.Netlist.Placement.y.(i))
      then bad := Some i)
    c.C.cells;
  match !bad with
  | Some i -> fail "cell %d has a non-finite coordinate" i
  | None -> Ok ()

(* The legality sweep: coordinates finite; fixed cells exactly where the
   initial placement put them; movable cells inside the region; movable
   standard cells centred on a row, not overlapping each other within a
   row nor any fixed non-pad cell.  [tol] absorbs rounding of packed
   edges. *)
let legal ?(tol = 1e-6) (c : C.t) ~(initial : Netlist.Placement.t)
    (p : Netlist.Placement.t) =
  let* () = finite_coords c p in
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let reg = c.C.region and rh = c.C.row_height in
  let nrows = int_of_float (Float.floor (((reg.R.y_hi -. reg.R.y_lo) /. rh) +. 1e-9)) in
  let rows = Array.make (max nrows 1) [] in
  let blocks = ref [] in
  let err = ref None in
  let report r = if !err = None then err := Some r in
  Array.iter
    (fun (cl : Netlist.Cell.t) ->
      let i = cl.Netlist.Cell.id in
      let w = cl.Netlist.Cell.width and h = cl.Netlist.Cell.height in
      if cl.Netlist.Cell.fixed then begin
        if
          x.(i) <> initial.Netlist.Placement.x.(i)
          || y.(i) <> initial.Netlist.Placement.y.(i)
        then report (Printf.sprintf "fixed cell %d moved" i)
        else if cl.Netlist.Cell.kind <> Netlist.Cell.Pad then
          blocks := (x.(i) -. (w /. 2.), y.(i) -. (h /. 2.), x.(i) +. (w /. 2.), y.(i) +. (h /. 2.)) :: !blocks
      end
      else begin
        let xl = x.(i) -. (w /. 2.) and xh = x.(i) +. (w /. 2.) in
        let yl = y.(i) -. (h /. 2.) and yh = y.(i) +. (h /. 2.) in
        if
          xl < reg.R.x_lo -. tol || xh > reg.R.x_hi +. tol
          || yl < reg.R.y_lo -. tol || yh > reg.R.y_hi +. tol
        then report (Printf.sprintf "cell %d lies outside the region" i)
        else if cl.Netlist.Cell.kind = Netlist.Cell.Standard then begin
          let r = Float.round (((y.(i) -. reg.R.y_lo) /. rh) -. 0.5) in
          let centre = reg.R.y_lo +. ((r +. 0.5) *. rh) in
          let r = int_of_float r in
          if Float.abs (y.(i) -. centre) > tol || r < 0 || r >= nrows then
            report (Printf.sprintf "cell %d is off-row (y = %.17g)" i y.(i))
          else rows.(r) <- (xl, xh, i) :: rows.(r)
        end
      end)
    c.C.cells;
  Array.iteri
    (fun r cells ->
      let sorted = List.sort compare cells in
      ignore
        (List.fold_left
           (fun prev (xl, xh, i) ->
             (match prev with
             | Some (_, pxh, j) when xl < pxh -. tol ->
               report (Printf.sprintf "cells %d and %d overlap in row %d" j i r)
             | _ -> ());
             (* Keep the rightmost edge seen so far: a wide cell can
                reach past a narrower successor. *)
             match prev with
             | Some (_, pxh, j) when pxh > xh -> Some (xl, pxh, j)
             | _ -> Some (xl, xh, i))
           None sorted);
      let yl = reg.R.y_lo +. (float_of_int r *. rh) in
      let yh = yl +. rh in
      List.iter
        (fun (bxl, byl, bxh, byh) ->
          if byl < yh -. tol && byh > yl +. tol then
            List.iter
              (fun (xl, xh, i) ->
                if xl < bxh -. tol && xh > bxl +. tol then
                  report (Printf.sprintf "cell %d overlaps a fixed cell" i))
              cells)
        !blocks)
    rows;
  match !err with Some r -> Error r | None -> Ok ()

(* Half-perimeter wire length by the benchmark's own loop: per net, the
   bounding box of its pins (cell centre plus pin offset). *)
let hpwl (c : C.t) (p : Netlist.Placement.t) =
  let total = ref 0. in
  Array.iter
    (fun (n : Netlist.Net.t) ->
      let xl = ref infinity and xh = ref neg_infinity in
      let yl = ref infinity and yh = ref neg_infinity in
      Array.iter
        (fun (pin : Netlist.Net.pin) ->
          let px = p.Netlist.Placement.x.(pin.Netlist.Net.cell) +. pin.Netlist.Net.dx in
          let py = p.Netlist.Placement.y.(pin.Netlist.Net.cell) +. pin.Netlist.Net.dy in
          if px < !xl then xl := px;
          if px > !xh then xh := px;
          if py < !yl then yl := py;
          if py > !yh then yh := py)
        n.Netlist.Net.pins;
      total := !total +. (!xh -. !xl) +. (!yh -. !yl))
    c.C.nets;
  !total

let hpwl_matches ~reported c p =
  let own = hpwl c p in
  if Float.is_finite reported
     && Float.abs (own -. reported) <= 1e-9 *. Float.abs own
  then Ok ()
  else fail "reported HPWL %.17g, recomputed %.17g" reported own

(* HPWL of a uniformly random placement of the same circuit: movable
   cells anywhere inside the region, fixed cells where they are. *)
let random_hpwl ~seed (c : C.t) (initial : Netlist.Placement.t) =
  let rng = Random.State.make [| seed |] in
  let p = Netlist.Placement.copy initial in
  let reg = c.C.region in
  Array.iter
    (fun (cl : Netlist.Cell.t) ->
      if not cl.Netlist.Cell.fixed then begin
        let i = cl.Netlist.Cell.id in
        let span lo hi size =
          let lo = lo +. (size /. 2.) and hi = hi -. (size /. 2.) in
          if hi > lo then lo +. Random.State.float rng (hi -. lo)
          else (lo +. hi) /. 2.
        in
        p.Netlist.Placement.x.(i) <- span reg.R.x_lo reg.R.x_hi cl.Netlist.Cell.width;
        p.Netlist.Placement.y.(i) <- span reg.R.y_lo reg.R.y_hi cl.Netlist.Cell.height
      end)
    c.C.cells;
  hpwl c p

(* "Well below" a random placement: at most half its wire length. *)
let beats_random ~hpwl ~random =
  if hpwl <= 0.5 *. random then Ok ()
  else fail "HPWL %.6g is not well below a random placement's %.6g" hpwl random

let sta_bound ~max_delay ~lower_bound =
  if Float.is_finite max_delay && max_delay >= lower_bound then Ok ()
  else fail "STA longest path %.6g below its lower bound %.6g" max_delay lower_bound

let routed ~total ~max =
  if Float.is_finite total && Float.is_finite max && total >= 0. && max >= 0.
     && max <= total
  then Ok ()
  else fail "routed overflow total %.6g, max %.6g" total max

(* Every check of a legalized placement the benchmark makes. *)
let placement ~seed ~reported_hpwl c ~initial p =
  let* () = legal c ~initial p in
  let* () = hpwl_matches ~reported:reported_hpwl c p in
  beats_random ~hpwl:reported_hpwl ~random:(random_hpwl ~seed c initial)
