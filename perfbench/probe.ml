(* The host's speed, measured beside every timing.

   The shared machine the benchmark was built on runs the same code up
   to 2x slower for stretches of seconds to minutes: other tenants load
   the shared cache and memory, and the clock moves.  No estimator
   inside one run removes a slow minute, so the harness runs this fixed
   probe before every timed burst and scales each timing by the probe's
   speed next to it: a timing is reported as it would read on a host
   where the probe takes [nominal_s].

   The probe is a small piece of the kind of work the program does —
   building a balanced map of a few thousand random keys: allocation,
   comparisons and pointer chasing within the private caches.  Of the
   probes tried (an ALU loop, pointer chases over 4 and 32 MB, this map
   build), it followed the program's slow stretches most closely.  It is
   the benchmark's own code, so no change to the program changes it;
   its words die young, so the program's heap hardly changes its time. *)

let now = Unix.gettimeofday

module IM = Map.Make (Int)

let work () =
  let st = Random.State.make [| 7 |] in
  let m = ref IM.empty in
  for i = 1 to 8_000 do
    m := IM.add (Random.State.int st 1_000_000) i !m
  done;
  ignore (Sys.opaque_identity !m)

(* the probe's median time on the 2-core machine the benchmark was
   built on *)
let nominal_s = 0.004

(* (time, seconds) of every probe of the run, newest first *)
let samples : (float * float) list ref = ref []

(** Time the probe once and remember it. *)
let sample () =
  let t0 = now () in
  work ();
  let t1 = now () in
  samples := (t0, t1 -. t0) :: !samples

(* How far either side of a timing the probes that scale it may lie:
   one burst and the probes around it. *)
let window_s = 0.5

type speed = { at : float array; took : float array }

(** No probes: [scale] leaves every timing as taken. *)
let unscaled = { at = [||]; took = [||] }

(** The probes of the run so far, for [scale]. *)
let freeze () =
  let s = Array.of_list (List.rev !samples) in
  { at = Array.map fst s; took = Array.map snd s }

let median_of a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* first index whose time is >= t *)
let lower_bound at t =
  let lo = ref 0 and hi = ref (Array.length at) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if at.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

(** [scale sp ~at seconds] is [seconds], timed at [at], as it would read
    on a host where the probe takes [nominal_s]: scaled by the median of
    the probes within [window_s] of [at] (the nearest probe if none). *)
let scale sp ~at:t seconds =
  let n = Array.length sp.at in
  if n = 0 then seconds
  else
    let lo = lower_bound sp.at (t -. window_s)
    and hi = lower_bound sp.at (t +. window_s) in
    let local =
      if hi > lo then median_of (Array.sub sp.took lo (hi - lo))
      else
        let i = min (n - 1) lo in
        let i =
          if i > 0 && Float.abs (sp.at.(i - 1) -. t) < Float.abs (sp.at.(i) -. t)
          then i - 1
          else i
        in
        sp.took.(i)
    in
    seconds *. nominal_s /. local
