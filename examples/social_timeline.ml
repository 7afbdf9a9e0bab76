(* The social-network timeline of Section 3.1 (Figure 5 of the paper),
   driven through [Kronos_timeline]: posts get Kronos events, replies are
   must-ordered after the message they answer, and rendering topologically
   sorts each user's inbox so a reply never appears above the message it
   replies to — without imposing a total order on unrelated posts.

   Run with: dune exec examples/social_timeline.exe *)

open Kronos
module Timeline = Kronos_timeline.Timeline

let print_timeline net user =
  Format.printf "@.-- %s's timeline --@." user;
  List.iter
    (fun (m : Timeline.message) ->
      Format.printf "  [%d] %s: %s@." m.id m.author m.text)
    (Timeline.render net ~user)

let () =
  Format.printf "== social timeline (Figure 5) ==@.";
  let net = Timeline.create () in
  List.iter
    (fun (a, b) -> Timeline.add_friendship net a b)
    [ ("alice", "bob"); ("alice", "carol"); ("bob", "carol") ];
  let brunch = Timeline.post net ~author:"alice" ~text:"Brunch anyone?" in
  let hike = Timeline.post net ~author:"carol" ~text:"Going hiking today." in
  (* bob's reply reaches timelines "later" but must render under brunch *)
  let reply =
    Timeline.reply net ~author:"bob" ~text:"Brunch: count me in!"
      ~in_reply_to:brunch
  in
  ignore
    (Timeline.reply net ~author:"alice" ~text:"Great, 11am at Joe's."
       ~in_reply_to:reply);
  print_timeline net "alice";
  print_timeline net "carol";
  (* demonstrate that the conversation order is pinned while unrelated posts
     stay concurrent *)
  match
    Engine.query_order (Timeline.engine net)
      [ (brunch.event, reply.event); (brunch.event, hike.event) ]
  with
  | Ok [ conversation; unrelated ] ->
    Format.printf "@.brunch vs its reply: %a (pinned)@." Order.pp_relation
      conversation;
    Format.printf "brunch vs hike: %a (free for the UI to arrange)@."
      Order.pp_relation unrelated
  | Ok _ | Error _ -> assert false
