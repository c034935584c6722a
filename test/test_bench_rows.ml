(* The bench renderer: one row list as the fixed-width text table and as
   the JSON array of a BENCH_*.json file.  Every BENCH file and every
   bench table goes through it, so its exact output is pinned here. *)

module R = Bench_rows
module J = Mach_obs.Obs_json

type row = { name : string; n : int; ratio : float option; extra : int option }

let rows =
  [
    { name = "alpha"; n = 7; ratio = Some 1.5; extra = Some 1 };
    { name = "b"; n = 12345; ratio = None; extra = None };
  ]

let cols =
  R.
    [
      col "name" ~key:"name" (fun r -> J.String r.name);
      col "n" ~key:"count" (fun r -> J.Int r.n);
      col "ratio" ~key:"ratio" (fun r ->
          match r.ratio with Some x -> J.Float x | None -> J.Null);
      col "pct" ~show:(fixed 1) (fun r -> J.Float (float_of_int r.n /. 3.));
      json "tag" (fun _ -> J.String "t");
      json_opt "extra" (fun r -> Option.map (fun x -> J.Int x) r.extra);
    ]

let text () =
  Alcotest.(check string)
    "table"
    "name   n      ratio  pct     \n\
     -----  -----  -----  ------  \n\
     alpha  7      1.50   2.3     \n\
     b      12345  -      4115.0  \n"
    (R.text cols rows)

let json () =
  Alcotest.(check string)
    "array"
    ({|[{"name":"alpha","count":7,"ratio":1.5,"tag":"t","extra":1},|}
    ^ {|{"name":"b","count":12345,"ratio":null,"tag":"t"}]|})
    (J.to_string (R.to_json cols rows))

let () =
  Alcotest.run "bench rows"
    [
      ( "render",
        [
          Alcotest.test_case "text table" `Quick text;
          Alcotest.test_case "json array" `Quick json;
        ] );
    ]
