(* Proof that the reply checks can fail: run point-serve and
   scan-update briefly with every k-th recorded reply altered, and
   require that failures are counted; then the same runs clean must
   count none.  Exit 0 on success. *)

let run ~work =
  let dir = Filename.concat work "self-test" in
  let ok = ref true in
  List.iter
    (fun (name, w) ->
      List.iter
        (fun k ->
          let d = Filename.concat dir (Printf.sprintf "%s-k%d" name k) in
          Bench_dirs.fresh d;
          let cwd = Sys.getcwd () in
          Sys.chdir d;
          Verify.corrupt_every := k;
          Verify.corrupted := 0;
          Verify.recorded := 0;
          let tally = Verify.tally () in
          ignore (E2e.run w { E2e.seed = 7; seconds = 1. } tally);
          Proc.stop_all ();
          Sys.chdir cwd;
          let pass = if k = 0 then tally.failed = 0 else tally.failed > 0 && !Verify.corrupted > 0 in
          Printf.printf "self-test %-12s corrupt every %3d: %d replies altered, %d of %d operations failed -> %s\n%!"
            name k !Verify.corrupted tally.failed tally.attempted (if pass then "ok" else "FAIL");
          if not pass then ok := false)
        [ 0; 53 ])
    [ ("point-serve", E2e.Point_serve); ("scan-update", E2e.Scan_update) ];
  Verify.corrupt_every := 0;
  print_endline (if !ok then "self-test passed" else "self-test FAILED");
  if !ok then 0 else 1
