(* The benchmark's output checks must reject deliberately broken
   outputs: an overlapping pair, an off-row cell, a NaN coordinate, a
   moved fixed cell, a cell outside the region, an HPWL off by one unit,
   a random placement, an STA result below its bound and impossible
   routed figures.  Each case is built from one small legal placement. *)

open Perfbench

let circuit =
  let std id name = Netlist.Cell.make ~id ~name ~width:2. ~height:1. () in
  let cells =
    [|
      std 0 "a"; std 1 "b"; std 2 "c"; std 3 "d";
      Netlist.Cell.make ~id:4 ~name:"blk" ~width:4. ~height:2. ~kind:Netlist.Cell.Block
        ~fixed:true ();
      Netlist.Cell.make ~id:5 ~name:"pad" ~width:1. ~height:1. ~kind:Netlist.Cell.Pad ();
    |]
  in
  let pin cell = { Netlist.Net.cell; dx = 0.; dy = 0. } in
  let nets =
    [|
      Netlist.Net.make ~id:0 ~name:"n0" [| pin 0; pin 1 |];
      Netlist.Net.make ~id:1 ~name:"n1" [| pin 1; pin 2; pin 5 |];
      Netlist.Net.make ~id:2 ~name:"n2" [| pin 2; pin 3 |];
    |]
  in
  Netlist.Circuit.make ~name:"tiny" ~cells ~nets
    ~region:(Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:20. ~y_hi:4.)
    ~row_height:1.

(* a and b abut in row 0, c sits in row 1, d in row 2; the fixed block
   covers x 14..18 of rows 2 and 3; the pad sits left of the region. *)
let initial =
  { Netlist.Placement.x = [| 10.; 10.; 10.; 10.; 16.; -1. |];
    y = [| 2.; 2.; 2.; 2.; 3.; 2. |] }

let legal_p =
  { Netlist.Placement.x = [| 1.; 3.; 1.; 10.; 16.; -1. |];
    y = [| 0.5; 0.5; 1.5; 2.5; 3.; 2. |] }

let broken f =
  let p = Netlist.Placement.copy legal_p in
  f p;
  p

let failures = ref 0
let cases = ref 0

let expect name ok verdict =
  incr cases;
  match (ok, verdict) with
  | true, Ok () | false, Error _ -> ()
  | true, Error e ->
    incr failures;
    Printf.printf "FAIL %s: rejected a good output (%s)\n" name e
  | false, Ok () ->
    incr failures;
    Printf.printf "FAIL %s: accepted a broken output\n" name

let legal p = Check.legal circuit ~initial p

let () =
  let hpwl = Check.hpwl circuit legal_p in
  expect "legal placement" true (legal legal_p);
  expect "overlapping pair" false (legal (broken (fun p -> p.Netlist.Placement.x.(1) <- 2.5)));
  expect "overlap past a neighbour" false
    (legal (broken (fun p -> p.Netlist.Placement.x.(2) <- 4.; p.Netlist.Placement.y.(2) <- 0.5)));
  expect "off-row cell" false (legal (broken (fun p -> p.Netlist.Placement.y.(3) <- 2.7)));
  expect "NaN coordinate" false (legal (broken (fun p -> p.Netlist.Placement.x.(0) <- nan)));
  expect "fixed cell moved" false (legal (broken (fun p -> p.Netlist.Placement.x.(5) <- -2.)));
  expect "outside the region" false (legal (broken (fun p -> p.Netlist.Placement.x.(3) <- 19.5)));
  expect "overlaps a fixed block" false (legal (broken (fun p -> p.Netlist.Placement.x.(3) <- 14.5)));
  expect "HPWL exact" true (Check.hpwl_matches ~reported:(Metrics.Wirelength.hpwl circuit legal_p) circuit legal_p);
  expect "HPWL off by one unit" false (Check.hpwl_matches ~reported:(hpwl +. 1.) circuit legal_p);
  expect "HPWL NaN" false (Check.hpwl_matches ~reported:nan circuit legal_p);
  expect "well below random" true (Check.beats_random ~hpwl:10. ~random:100.);
  expect "no better than random" false
    (Check.beats_random ~hpwl:(Check.random_hpwl ~seed:1 circuit initial)
       ~random:(Check.random_hpwl ~seed:1 circuit initial));
  expect "STA at its bound" true (Check.sta_bound ~max_delay:1e-9 ~lower_bound:1e-9);
  expect "STA below its bound" false (Check.sta_bound ~max_delay:0.9e-9 ~lower_bound:1e-9);
  expect "routed figures" true (Check.routed ~total:12. ~max:3.);
  expect "negative overflow" false (Check.routed ~total:(-1.) ~max:0.);
  expect "max above total" false (Check.routed ~total:2. ~max:3.);
  expect "NaN overflow" false (Check.routed ~total:nan ~max:0.);
  Printf.printf "output checks: %d cases, %d wrong verdicts\n" !cases !failures;
  if !failures > 0 then exit 1
