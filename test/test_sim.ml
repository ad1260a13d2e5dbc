(* Tests for the discrete-event simulation substrate: time arithmetic,
   the binary heap, the engine's ordering guarantees, the PRNG and the
   statistics accumulator. *)

let check = Alcotest.check

(* --- Time --- *)

let test_time_units () =
  check Alcotest.int "us" 1_000 (Sim.Time.to_ns (Sim.Time.us 1));
  check Alcotest.int "ms" 1_000_000 (Sim.Time.to_ns (Sim.Time.ms 1));
  check Alcotest.int "s" 1_000_000_000 (Sim.Time.to_ns (Sim.Time.s 1));
  check (Alcotest.float 1e-9) "to_float_s" 1.5
    (Sim.Time.to_float_s (Sim.Time.ms 1500))

let test_time_arithmetic () =
  let a = Sim.Time.ms 3 and b = Sim.Time.ms 1 in
  check Alcotest.int "add" 4_000_000 (Sim.Time.to_ns (Sim.Time.add a b));
  check Alcotest.int "sub" 2_000_000 (Sim.Time.to_ns (Sim.Time.sub a b));
  Alcotest.check_raises "negative sub" (Invalid_argument "Time.sub: negative result")
    (fun () -> ignore (Sim.Time.sub b a));
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.ns: negative")
    (fun () -> ignore (Sim.Time.ns (-1)))

let test_time_pp () =
  let s t = Format.asprintf "%a" Sim.Time.pp t in
  check Alcotest.string "zero" "0s" (s Sim.Time.zero);
  check Alcotest.string "ns" "123ns" (s (Sim.Time.ns 123));
  check Alcotest.string "s" "2s" (s (Sim.Time.s 2))

(* --- Heap --- *)

let test_heap_orders_by_key () =
  let h = Sim.Heap.create () in
  List.iter (fun k -> Sim.Heap.push h ~key:k k) [ 5; 1; 4; 2; 3 ];
  let rec drain acc =
    match Sim.Heap.pop h with
    | None -> List.rev acc
    | Some (k, _) -> drain (k :: acc)
  in
  check Alcotest.(list int) "sorted" [ 1; 2; 3; 4; 5 ] (drain [])

let test_heap_fifo_on_ties () =
  (* Ties leave in insertion order whichever way the minimum is read:
     [pop], or [min_key] in place followed by [take]. *)
  List.iter
    (fun (how, read) ->
      let h = Sim.Heap.create () in
      List.iteri (fun i v -> Sim.Heap.push h ~key:7 (i, v)) [ "a"; "b"; "c" ];
      Sim.Heap.push h ~key:9 (3, "d");
      let out = List.init 4 (fun _ -> read h) in
      check
        Alcotest.(list (pair int string))
        ("insertion order, " ^ how)
        [ (7, "a"); (7, "b"); (7, "c"); (9, "d") ]
        out)
    [
      ( "pop",
        fun h ->
          match Sim.Heap.pop h with Some (k, (_, v)) -> (k, v) | None -> (-1, "?")
      );
      ( "min_key then take",
        fun h ->
          let k = Sim.Heap.min_key h in
          (k, snd (Sim.Heap.take h)) );
    ]

let test_heap_peek_and_size () =
  let h = Sim.Heap.create () in
  check Alcotest.bool "empty" true (Sim.Heap.is_empty h);
  Alcotest.check_raises "no minimum when empty"
    (Invalid_argument "Heap.min_key: empty heap") (fun () ->
      ignore (Sim.Heap.min_key h));
  Sim.Heap.push h ~key:3 "x";
  Sim.Heap.push h ~key:1 "y";
  check Alcotest.int "min_key" 1 (Sim.Heap.min_key h);
  check Alcotest.int "size" 2 (Sim.Heap.size h);
  Sim.Heap.clear h;
  check Alcotest.bool "cleared" true (Sim.Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iter (fun k -> Sim.Heap.push h ~key:k k) keys;
      let rec drain acc =
        match Sim.Heap.pop h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      let out = drain [] in
      out = List.sort compare keys)

(* --- Engine --- *)

let test_engine_runs_in_time_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:(Sim.Time.ms 3) (fun () -> log := "c" :: !log);
  Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> log := "a" :: !log);
  Sim.Engine.schedule e ~delay:(Sim.Time.ms 2) (fun () -> log := "b" :: !log);
  Sim.Engine.run e;
  check Alcotest.(list string) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check Alcotest.int "clock advanced" 3_000_000 (Sim.Time.to_ns (Sim.Engine.now e))

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () ->
      incr fired;
      Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> incr fired));
  Sim.Engine.run e;
  check Alcotest.int "both fired" 2 !fired;
  check Alcotest.int "clock at 2ms" 2_000_000 (Sim.Time.to_ns (Sim.Engine.now e))

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let handle =
    Sim.Engine.schedule_cancellable e ~delay:(Sim.Time.ms 1) (fun () ->
        fired := true)
  in
  Sim.Engine.cancel handle;
  Sim.Engine.run e;
  check Alcotest.bool "cancelled event did not fire" false !fired

let test_engine_until () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun ms ->
      Sim.Engine.schedule e ~delay:(Sim.Time.ms ms) (fun () ->
          fired := ms :: !fired))
    [ 1; 2; 3; 10 ];
  Sim.Engine.run ~until:(Sim.Time.ms 5) e;
  check Alcotest.(list int) "only events before deadline" [ 1; 2; 3 ]
    (List.rev !fired);
  check Alcotest.int "one pending" 1 (Sim.Engine.pending e)

(* The dispatch loop allocates nothing per event: the heap's minimum
   is read in place and taken without an option or a pair. *)
let test_engine_run_alloc () =
  let e = Sim.Engine.create () in
  let n = 10_000 in
  let noop () = () in
  for i = 1 to n do
    Sim.Engine.schedule e ~delay:(Sim.Time.ns i) noop
  done;
  let before = Gc.minor_words () in
  Sim.Engine.run e;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "all dispatched" 0 (Sim.Engine.pending e);
  if words > 16. then
    Alcotest.failf "%.0f minor words to dispatch %d no-op events" words n

(* A dispatched event is gone from the queue: what only its closure
   captured becomes garbage, and the heap's spare slots keep nothing
   alive. *)
let test_engine_releases_dispatched () =
  let e = Sim.Engine.create () in
  let captured = Weak.create 3 in
  let[@inline never] arm i =
    let v = Bytes.make 64 'x' in
    Weak.set captured i (Some v);
    Sim.Engine.schedule e ~delay:(Sim.Time.ns (i + 1)) (fun () ->
        ignore (Sys.opaque_identity v))
  in
  for i = 0 to 2 do
    arm i
  done;
  Sim.Engine.run e;
  Gc.full_major ();
  check Alcotest.int "all dispatched" 0 (Sim.Engine.pending e);
  for i = 0 to 2 do
    if Weak.check captured i then
      Alcotest.failf "event %d's capture is still reachable after dispatch" i
  done

let test_engine_max_events () =
  let e = Sim.Engine.create () in
  for i = 1 to 10 do
    Sim.Engine.schedule e ~delay:(Sim.Time.ms i) (fun () -> ())
  done;
  Sim.Engine.run ~max_events:4 e;
  check Alcotest.int "six left" 6 (Sim.Engine.pending e)

let test_engine_same_time_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> log := i :: !log)
  done;
  Sim.Engine.run e;
  check Alcotest.(list int) "fifo among simultaneous" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_rejects_past () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:(Sim.Time.ms 5) (fun () -> ());
  Sim.Engine.run e;
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
      Sim.Engine.schedule_at e ~at:(Sim.Time.ms 1) (fun () -> ()))

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Sim.Prng.create 42 and b = Sim.Prng.create 42 in
  let sa = List.init 20 (fun _ -> Sim.Prng.int a 1000) in
  let sb = List.init 20 (fun _ -> Sim.Prng.int b 1000) in
  check Alcotest.(list int) "same seed, same stream" sa sb

let test_prng_seed_changes_stream () =
  let a = Sim.Prng.create 1 and b = Sim.Prng.create 2 in
  let sa = List.init 20 (fun _ -> Sim.Prng.int a 1000000) in
  let sb = List.init 20 (fun _ -> Sim.Prng.int b 1000000) in
  check Alcotest.bool "different streams" false (sa = sb)

let prop_prng_int_in_range =
  QCheck.Test.make ~name:"Prng.int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let p = Sim.Prng.create seed in
      let v = Sim.Prng.int p bound in
      v >= 0 && v < bound)

let prop_prng_float_in_range =
  QCheck.Test.make ~name:"Prng.float stays in range" ~count:500
    QCheck.small_int (fun seed ->
      let p = Sim.Prng.create seed in
      let v = Sim.Prng.float p 3.5 in
      v >= 0.0 && v < 3.5)

let test_prng_shuffle_permutes () =
  let p = Sim.Prng.create 7 in
  let arr = Array.init 50 Fun.id in
  Sim.Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "same elements" (Array.init 50 Fun.id) sorted

let test_prng_exponential_positive () =
  let p = Sim.Prng.create 9 in
  for _ = 1 to 100 do
    check Alcotest.bool "positive" true (Sim.Prng.exponential p ~mean:2.0 >= 0.0)
  done

(* --- Trace --- *)

let test_trace_records_in_order () =
  let t = Sim.Trace.create () in
  Sim.Trace.record t ~at:Sim.Time.zero ~actor:"a" "unseen";
  check Alcotest.int "a fresh trace records nothing" 0
    (List.length (Sim.Trace.entries t));
  Sim.Trace.set_enabled t true;
  Sim.Trace.record t ~at:(Sim.Time.ms 1) ~actor:"a" "one";
  Sim.Trace.record t ~at:(Sim.Time.ms 2) ~actor:"b" "two";
  let entries = Sim.Trace.entries t in
  check Alcotest.int "two entries" 2 (List.length entries);
  check Alcotest.(option string) "find" (Some "two")
    (Option.map
       (fun (e : Sim.Trace.entry) -> e.event)
       (List.find_opt (fun (e : Sim.Trace.entry) -> e.actor = "b") entries));
  check Alcotest.int "count" 1
    (List.length (List.filter (fun (e : Sim.Trace.entry) -> e.actor = "a") entries))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "heap",
        [
          Alcotest.test_case "orders by key" `Quick test_heap_orders_by_key;
          Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_on_ties;
          Alcotest.test_case "peek and size" `Quick test_heap_peek_and_size;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_runs_in_time_order;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "run allocates nothing per event" `Quick
            test_engine_run_alloc;
          Alcotest.test_case "dispatched events are released" `Quick
            test_engine_releases_dispatched;
          Alcotest.test_case "fifo among simultaneous" `Quick
            test_engine_same_time_fifo;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick
            test_prng_seed_changes_stream;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "exponential positive" `Quick
            test_prng_exponential_positive;
        ] );
      ( "trace",
        [ Alcotest.test_case "records in order" `Quick test_trace_records_in_order ] );
      ( "properties",
        qc
          [
            prop_heap_sorts;
            prop_prng_int_in_range;
            prop_prng_float_in_range;
          ] );
    ]
