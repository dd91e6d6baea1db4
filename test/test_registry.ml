module Cloud = Xheal_core.Cloud
module Registry = Xheal_core.Registry

let rng () = Random.State.make [| 23 |]

let mk_cloud reg kind nodes =
  let id = Registry.fresh_id reg in
  let c = Cloud.make ~rng:(rng ()) ~id ~kind ~d:2 ~half_rebuild:true nodes in
  Registry.add_cloud reg c;
  c

let check reg = match Registry.check reg with Ok () -> () | Error e -> Alcotest.failf "registry: %s" e

let test_membership_index () =
  let reg = Registry.create () in
  let c1 = mk_cloud reg Cloud.Primary [ 0; 1; 2 ] in
  let c2 = mk_cloud reg Cloud.Primary [ 2; 3 ] in
  Alcotest.(check int) "clouds" 2 (Registry.num_clouds reg);
  Alcotest.(check (list int)) "clouds of 2"
    [ Cloud.id c1; Cloud.id c2 ]
    (List.map Cloud.id (Registry.clouds_of reg 2));
  Alcotest.(check (list int)) "clouds of 3" [ Cloud.id c2 ] (List.map Cloud.id (Registry.clouds_of reg 3));
  Alcotest.(check (list int)) "clouds of stranger" [] (List.map Cloud.id (Registry.clouds_of reg 99));
  check reg

let test_bridge_duty () =
  let reg = Registry.create () in
  let p1 = mk_cloud reg Cloud.Primary [ 0; 1; 2 ] in
  let p2 = mk_cloud reg Cloud.Primary [ 3; 4 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1; 3 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p1);
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:3 ~primary:(Cloud.id p2);
  check reg;
  Alcotest.(check bool) "1 not free" false (Registry.is_free reg 1);
  Alcotest.(check bool) "0 free" true (Registry.is_free reg 0);
  Alcotest.(check (list int)) "free members of p1" [ 0; 2 ] (Registry.free_members reg p1);
  Alcotest.(check (option int)) "duty of 1" (Some (Cloud.id s)) (Registry.duty_of reg 1);
  Alcotest.(check (list (pair int int)))
    "bridges of s"
    [ (1, Cloud.id p1); (3, Cloud.id p2) ]
    (Registry.bridges_of_secondary reg (Cloud.id s));
  Alcotest.(check (option int)) "assoc lookup" (Some (Cloud.id p2))
    (Registry.primary_of_bridge reg ~secondary:(Cloud.id s) ~bridge:3);
  Alcotest.check_raises "double duty rejected"
    (Invalid_argument "Registry.link: node 1 already has bridge duty") (fun () ->
      Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p1))

let test_unlink () =
  let reg = Registry.create () in
  let p = mk_cloud reg Cloud.Primary [ 0; 1 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p);
  Registry.unlink_bridge reg ~secondary:(Cloud.id s) ~bridge:1;
  Alcotest.(check bool) "free again" true (Registry.is_free reg 1);
  Alcotest.(check (list (pair int int))) "no bridges" []
    (Registry.bridges_of_secondary reg (Cloud.id s))

let test_secondary_of () =
  let reg = Registry.create () in
  let _p = mk_cloud reg Cloud.Primary [ 0; 1 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:0;
  (match Registry.secondary_of reg 1 with
  | Some c -> Alcotest.(check int) "found secondary" (Cloud.id s) (Cloud.id c)
  | None -> Alcotest.fail "expected secondary");
  Alcotest.(check bool) "primary-only node" true (Registry.secondary_of reg 0 = None);
  Alcotest.(check int) "primaries_of bridge" 1 (List.length (Registry.primaries_of reg 1))

let test_retarget () =
  let reg = Registry.create () in
  let p1 = mk_cloud reg Cloud.Primary [ 0; 1 ] in
  let p2 = mk_cloud reg Cloud.Primary [ 0; 1; 2; 3 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p1);
  Registry.retarget_primary reg ~old_primary:(Cloud.id p1) ~new_primary:(Cloud.id p2);
  Alcotest.(check (option int)) "assoc moved" (Some (Cloud.id p2))
    (Registry.primary_of_bridge reg ~secondary:(Cloud.id s) ~bridge:1);
  Alcotest.(check (list (pair int int)))
    "reverse view"
    [ (Cloud.id s, 1) ]
    (Registry.secondaries_of_primary reg (Cloud.id p2));
  Registry.remove_cloud reg (Cloud.id p1);
  check reg

let test_remove_node_clears_duty () =
  let reg = Registry.create () in
  let p = mk_cloud reg Cloud.Primary [ 0; 1 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p);
  Registry.remove_node reg 1;
  Alcotest.(check (list (pair int int))) "assoc cleared" []
    (Registry.bridges_of_secondary reg (Cloud.id s));
  Alcotest.(check (list int)) "memberships cleared" []
    (List.map Cloud.id (Registry.clouds_of reg 1))

let test_unlink_all () =
  let reg = Registry.create () in
  let p1 = mk_cloud reg Cloud.Primary [ 0; 1 ] in
  let p2 = mk_cloud reg Cloud.Primary [ 2; 3 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1; 2 ] in
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:1 ~primary:(Cloud.id p1);
  Registry.link reg ~secondary:(Cloud.id s) ~bridge:2 ~primary:(Cloud.id p2);
  Registry.unlink_all reg ~secondary:(Cloud.id s);
  Alcotest.(check bool) "all free" true (Registry.is_free reg 1 && Registry.is_free reg 2)

(* The primary-side index, read through [secondaries_of_primary] and
   audited by [check], across every operation that maintains it. *)
let pairs = Alcotest.(list (pair int int))

let test_index_link_unlink () =
  let reg = Registry.create () in
  let p1 = mk_cloud reg Cloud.Primary [ 0; 1; 2 ] in
  let p2 = mk_cloud reg Cloud.Primary [ 3; 4 ] in
  let s1 = mk_cloud reg Cloud.Secondary [ 1; 3 ] in
  let s2 = mk_cloud reg Cloud.Secondary [ 2 ] in
  let id = Cloud.id in
  Registry.link reg ~secondary:(id s1) ~bridge:1 ~primary:(id p1);
  Registry.link reg ~secondary:(id s1) ~bridge:3 ~primary:(id p2);
  Registry.link reg ~secondary:(id s2) ~bridge:2 ~primary:(id p1);
  check reg;
  Alcotest.check pairs "p1 after link" [ (id s1, 1); (id s2, 2) ] (Registry.secondaries_of_primary reg (id p1));
  Alcotest.check pairs "p2 after link" [ (id s1, 3) ] (Registry.secondaries_of_primary reg (id p2));
  Registry.unlink_bridge reg ~secondary:(id s1) ~bridge:1;
  Alcotest.check pairs "p1 after unlink_bridge" [ (id s2, 2) ]
    (Registry.secondaries_of_primary reg (id p1));
  Alcotest.check pairs "p2 untouched" [ (id s1, 3) ] (Registry.secondaries_of_primary reg (id p2));
  (* The registry check needs s1's members to match its bridges again. *)
  Registry.unlink_all reg ~secondary:(id s1);
  Registry.remove_cloud reg (id s1);
  Alcotest.check pairs "p2 after unlink_all" [] (Registry.secondaries_of_primary reg (id p2));
  Alcotest.check pairs "p1 keeps its other link" [ (id s2, 2) ]
    (Registry.secondaries_of_primary reg (id p1));
  check reg;
  Registry.unlink_bridge reg ~secondary:(id s2) ~bridge:2;
  Alcotest.check pairs "p1 after its last unlink" [] (Registry.secondaries_of_primary reg (id p1));
  Registry.unlink_bridge reg ~secondary:(id s2) ~bridge:2;
  Alcotest.check pairs "unlinking a missing bridge is a no-op" []
    (Registry.secondaries_of_primary reg (id p1))

let test_index_retarget () =
  let reg = Registry.create () in
  let p1 = mk_cloud reg Cloud.Primary [ 0; 1; 5 ] in
  let p2 = mk_cloud reg Cloud.Primary [ 2; 3 ] in
  let p3 = mk_cloud reg Cloud.Primary [ 4 ] in
  let s1 = mk_cloud reg Cloud.Secondary [ 1; 2; 4 ] in
  let s2 = mk_cloud reg Cloud.Secondary [ 3; 5 ] in
  let id = Cloud.id in
  Registry.link reg ~secondary:(id s1) ~bridge:1 ~primary:(id p1);
  Registry.link reg ~secondary:(id s1) ~bridge:2 ~primary:(id p2);
  Registry.link reg ~secondary:(id s1) ~bridge:4 ~primary:(id p3);
  Registry.link reg ~secondary:(id s2) ~bridge:3 ~primary:(id p2);
  Registry.link reg ~secondary:(id s2) ~bridge:5 ~primary:(id p1);
  check reg;
  (* Combine p1 and p2 into a fresh primary over their members. *)
  let m = mk_cloud reg Cloud.Primary [ 0; 1; 2; 3; 5 ] in
  Registry.retarget_primary reg ~old_primary:(id p1) ~new_primary:(id m);
  Registry.retarget_primary reg ~old_primary:(id p2) ~new_primary:(id m);
  Registry.remove_cloud reg (id p1);
  Registry.remove_cloud reg (id p2);
  check reg;
  Alcotest.check pairs "merged primary holds every link of both"
    [ (id s1, 1); (id s1, 2); (id s2, 3); (id s2, 5) ]
    (Registry.secondaries_of_primary reg (id m));
  Alcotest.check pairs "old primaries emptied" []
    (Registry.secondaries_of_primary reg (id p1) @ Registry.secondaries_of_primary reg (id p2));
  Alcotest.check pairs "bystander untouched" [ (id s1, 4) ] (Registry.secondaries_of_primary reg (id p3));
  Alcotest.(check (list (pair int int)))
    "secondary side agrees"
    [ (1, id m); (2, id m); (4, id p3) ]
    (Registry.bridges_of_secondary reg (id s1));
  Registry.retarget_primary reg ~old_primary:99 ~new_primary:(id m);
  check reg

let test_index_remove_node () =
  let reg = Registry.create () in
  let p = mk_cloud reg Cloud.Primary [ 0; 1; 2 ] in
  let s = mk_cloud reg Cloud.Secondary [ 1; 2 ] in
  let id = Cloud.id in
  Registry.link reg ~secondary:(id s) ~bridge:1 ~primary:(id p);
  Registry.link reg ~secondary:(id s) ~bridge:2 ~primary:(id p);
  Registry.remove_node reg 1;
  Alcotest.check pairs "dead bridge leaves the index" [ (id s, 2) ]
    (Registry.secondaries_of_primary reg (id p))

let test_fresh_ids_distinct () =
  let reg = Registry.create () in
  let a = Registry.fresh_id reg and b = Registry.fresh_id reg in
  Alcotest.(check bool) "monotone" true (b > a)

let suite =
  [
    ( "registry",
      [
        Alcotest.test_case "membership index" `Quick test_membership_index;
        Alcotest.test_case "bridge duty" `Quick test_bridge_duty;
        Alcotest.test_case "unlink" `Quick test_unlink;
        Alcotest.test_case "secondary_of" `Quick test_secondary_of;
        Alcotest.test_case "retarget on combine" `Quick test_retarget;
        Alcotest.test_case "remove node clears duty" `Quick test_remove_node_clears_duty;
        Alcotest.test_case "unlink_all" `Quick test_unlink_all;
        Alcotest.test_case "fresh ids" `Quick test_fresh_ids_distinct;
        Alcotest.test_case "index follows link and unlink" `Quick test_index_link_unlink;
        Alcotest.test_case "index follows retarget" `Quick test_index_retarget;
        Alcotest.test_case "index follows node removal" `Quick test_index_remove_node;
      ] );
  ]
